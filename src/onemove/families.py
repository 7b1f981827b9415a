"""Structure-aware solvers for graph families with closed-form answers.

Each solver returns the minimum searcher count together with a witness
that replays on the simulation engines: a sliding strategy for trees,
unicyclic graphs, and attached-tree graphs, and a searcher layout for
clique-constructed graphs.  Pendant-edge dismantling orderings act as
certificates in their own right; any two orderings of the same graph
have equal length, so the count they certify is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deduction import Layout
from .engines import Strategy, certify, complete_with_slides
from .exact import ParameterResult
from .graphs import Edge, Graph, connected_components, edge_key

__all__ = [
    "DismantlingOrdering",
    "CliqueConstruction",
    "tree_solve",
    "unicyclic_solve",
    "pendent_dismantle",
    "dismantlable_value",
    "dismantling_strategy",
    "clique_construction_value",
    "clique_construction_layout",
    "attach_trees_solve",
]


@dataclass(frozen=True)
class DismantlingOrdering:
    """Sequence of pendant edges whose stepwise removal empties the graph.

    Removing a pendant edge deletes both endpoints.  The ordering is valid
    when every listed edge is pendant in the residual graph at its turn and
    nothing but isolated vertices survives at the end.
    """

    edges: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CliqueConstruction:
    """Recipe that grows a graph by joining cliques to earlier material.

    cliques lists the disjoint vertex sets Z_1..Z_k (each of size at least
    two), anchors picks one distinguished vertex per clique, and
    attachments lists, for every clique after the first, the earlier
    clique it is fully joined to.  Anchors never serve as attachment
    points.
    """

    cliques: tuple[frozenset[int], ...]
    anchors: tuple[int, ...]
    attachments: tuple[frozenset[int], ...]


# ---------------------------------------------------------------------------
# Trees and forests.
# ---------------------------------------------------------------------------


def _forest_pairing(t: Graph) -> list[tuple[int, int]]:
    """Greedy children-first pairing; returns (parent, child) pairs.

    Processing every vertex after all of its descendants and pairing it
    with its lowest unpaired child yields a maximum matching of the
    forest, and the pairs come out in an order that lets each child slide
    onto its parent.
    """
    adj = t.adjacency()
    parent = [-1] * t.n
    paired = [False] * t.n
    pairs: list[tuple[int, int]] = []
    for comp in connected_components(t):
        root = comp[0]
        order = [root]
        stack = [root]
        seen = {root}
        while stack:
            v = stack.pop()
            if v != root:
                order.append(v)
            for w in sorted(adj[v], reverse=True):
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    stack.append(w)
        for u in reversed(order):
            if paired[u]:
                continue
            for v in sorted(adj[u]):
                if v != parent[u] and not paired[v]:
                    paired[u] = paired[v] = True
                    pairs.append((u, v))
                    break
    return pairs


def tree_solve(t: Graph) -> ParameterResult:
    """Minimum searchers for a forest, with a replayable sliding strategy.

    Pairs each vertex with an unpaired child working upward from the
    leaves.  Placing a searcher on every paired child and every unpaired
    vertex, then sliding each paired child onto its parent in pairing
    order, clears the forest with n - k searchers where k is the number
    of pairs.
    """
    if t.m != t.n - len(connected_components(t)):
        raise ValueError("input graph is not a forest")
    pairs = _forest_pairing(t)
    parents = {u for u, _ in pairs}
    places = [v for v in range(t.n) if v not in parents]
    actions: list[tuple] = [("place", v) for v in places]
    actions.extend(("slide", v, u) for u, v in pairs)
    strategy = Strategy(tuple(actions))
    certify(t, strategy)
    return ParameterResult(value=t.n - len(pairs), witness=strategy, method="tree")


# ---------------------------------------------------------------------------
# Unicyclic graphs.
# ---------------------------------------------------------------------------


def unicyclic_solve(g: Graph) -> ParameterResult:
    """Minimum searchers for a connected graph with exactly one cycle.

    Pendant edges are pruned first, each contributing one searcher placed
    on its leaf.  If pruning consumes the cycle the remainder is a set of
    isolated vertices, each costing one more searcher.  Otherwise the
    bare cycle survives and takes ceil(|C|/2) searchers.
    """
    comps = connected_components(g)
    if len(comps) != 1 or g.m != g.n:
        raise ValueError("input graph is not connected unicyclic")
    adj = {v: set(ws) for v, ws in enumerate(g.adjacency())}
    places: list[int] = []
    deletions = 0
    while True:
        leaf = min((v for v, ws in adj.items() if len(ws) == 1), default=None)
        if leaf is None:
            break
        u = next(iter(adj[leaf]))
        places.append(leaf)
        deletions += 1
        for w in (leaf, u):
            for x in adj[w]:
                if x != leaf and x != u:
                    adj[x].discard(w)
        del adj[leaf]
        del adj[u]

    isolated = sorted(v for v, ws in adj.items() if not ws)
    on_cycle = {v for v, ws in adj.items() if len(ws) == 2}
    if len(isolated) + len(on_cycle) != len(adj):
        raise RuntimeError("pruning left a vertex of degree 3+; this is a bug")

    if not on_cycle:
        value = len(adj) + deletions
    else:
        start = min(on_cycle)
        rotation = [start]
        prev, cur = -1, start
        while True:
            nxt = min(w for w in adj[cur] if w != prev)
            if nxt == start:
                break
            rotation.append(nxt)
            prev, cur = cur, nxt
        places.extend([rotation[0], rotation[1]])
        places.extend(rotation[j] for j in range(3, len(rotation) - 1, 2))
        value = g.n - len(rotation) // 2 - deletions
    places.extend(isolated)
    if len(places) != value:
        raise RuntimeError("placement count disagrees with the closed form; this is a bug")

    strategy = complete_with_slides(g, sorted(places))
    certify(g, strategy)
    return ParameterResult(value=value, witness=strategy, method="unicyclic")


# ---------------------------------------------------------------------------
# Pendant-edge dismantling.
# ---------------------------------------------------------------------------


def pendent_dismantle(g: Graph, *, stats: dict | None = None) -> DismantlingOrdering | None:
    """Search for a pendant-edge dismantling ordering.

    Backtracks over the choice of pendant edge at every step, memoizing
    residual vertex sets that cannot be finished.  Greedy choice is not
    known to be safe here, so the search is exhaustive; pass a stats dict
    to read back how many branches were abandoned.
    """
    adj = g.adjacency()
    failed: set[frozenset[int]] = set()
    backtracks = 0

    def search(alive: frozenset[int], acc: list[Edge]) -> bool:
        nonlocal backtracks
        degree = {v: sum(1 for w in adj[v] if w in alive) for v in alive}
        if all(d == 0 for d in degree.values()):
            return True
        if alive in failed:
            return False
        candidates = sorted(
            {edge_key(v, next(w for w in adj[v] if w in alive)) for v in alive if degree[v] == 1}
        )
        for e in candidates:
            acc.append(e)
            if search(alive - set(e), acc):
                return True
            acc.pop()
            backtracks += 1
        failed.add(alive)
        return False

    acc: list[Edge] = []
    found = search(frozenset(range(g.n)), acc)
    failed.clear()  # search is a closure cycle; free its memo now, not at the next gc pass
    if stats is not None:
        stats["backtracks"] = backtracks
    return DismantlingOrdering(tuple(acc)) if found else None


def _replay_ordering(g: Graph, o: DismantlingOrdering) -> list[tuple[int, int]]:
    """Validate an ordering and orient each edge as (degree-1 endpoint, other)."""
    adj = g.adjacency()
    alive = set(range(g.n))

    def degree(v: int) -> int:
        return sum(1 for w in adj[v] if w in alive)

    oriented: list[tuple[int, int]] = []
    for i, (a, b) in enumerate(o.edges):
        if a not in alive or b not in alive:
            raise ValueError(f"step {i}: edge ({a}, {b}) touches a deleted vertex")
        if not g.has_edge(a, b):
            raise ValueError(f"step {i}: ({a}, {b}) is not an edge")
        if degree(a) == 1:
            oriented.append((a, b))
        elif degree(b) == 1:
            oriented.append((b, a))
        else:
            raise ValueError(f"step {i}: edge ({a}, {b}) is not pendant in the residual graph")
        alive -= {a, b}
    for v in alive:
        if degree(v) > 0:
            raise ValueError("ordering ends with edges remaining")
    return oriented


def dismantlable_value(g: Graph, o: DismantlingOrdering) -> int:
    """Searcher count certified by a dismantling ordering: n minus its length.

    Replays the ordering step by step and raises if any step is not a
    pendant edge of the residual graph or if edges survive at the end.
    """
    _replay_ordering(g, o)
    return g.n - len(o.edges)


def dismantling_strategy(g: Graph, o: DismantlingOrdering) -> Strategy:
    """Sliding strategy that realizes a dismantling ordering's searcher count.

    Places a searcher on the degree-1 endpoint of every deleted edge and on
    every surviving vertex, then slides each degree-1 endpoint across its
    edge in deletion order.
    """
    oriented = _replay_ordering(g, o)
    targets = {p for _, p in oriented}
    actions: list[tuple] = [("place", v) for v in range(g.n) if v not in targets]
    actions.extend(("slide", c, p) for c, p in oriented)
    strategy = Strategy(tuple(actions))
    certify(g, strategy)
    return strategy


# ---------------------------------------------------------------------------
# Clique constructions.
# ---------------------------------------------------------------------------


def _validate_clique_construction(g: Graph, c: CliqueConstruction) -> None:
    k = len(c.cliques)
    if k == 0:
        raise ValueError("construction must contain at least one clique")
    if len(c.anchors) != k or len(c.attachments) != k - 1:
        raise ValueError("anchor or attachment count does not match the clique count")
    seen: set[int] = set()
    for i, z in enumerate(c.cliques):
        if len(z) < 2:
            raise ValueError(f"clique {i} has fewer than two vertices")
        if z & seen:
            raise ValueError(f"clique {i} overlaps an earlier clique")
        seen |= z
        if c.anchors[i] not in z:
            raise ValueError(f"anchor {c.anchors[i]} is not in clique {i}")
    if seen != set(range(g.n)):
        raise ValueError("cliques do not partition the vertex set")

    built: set[Edge] = set()
    for z in c.cliques:
        zs = sorted(z)
        built.update(edge_key(a, b) for i, a in enumerate(zs) for b in zs[i + 1 :])
    grown: set[int] = set(c.cliques[0])
    banned = {c.anchors[0]}
    for i, y in enumerate(c.attachments):
        if not y:
            raise ValueError(f"attachment {i} is empty")
        if not y <= grown:
            raise ValueError(f"attachment {i} uses vertices not yet constructed")
        if y & banned:
            raise ValueError(f"attachment {i} touches an anchor")
        ys = sorted(y)
        for a_i, a in enumerate(ys):
            for b in ys[a_i + 1 :]:
                if edge_key(a, b) not in built:
                    raise ValueError(f"attachment {i} is not a clique: missing edge ({a}, {b})")
        z = c.cliques[i + 1]
        built.update(edge_key(a, b) for a in z for b in y)
        grown |= z
        banned.add(c.anchors[i + 1])
    if built != set(g.edges):
        raise ValueError("construction does not reproduce the graph's edges")


def clique_construction_layout(g: Graph, c: CliqueConstruction) -> Layout:
    """Witness layout for a valid construction: everything except anchors."""
    _validate_clique_construction(g, c)
    return Layout.standard(v for v in range(g.n) if v not in set(c.anchors))


def clique_construction_value(g: Graph, c: CliqueConstruction) -> int:
    """Searcher count certified by a clique construction: n minus its length.

    Validates the construction against g, then confirms the non-anchor
    layout wins the deduction game before reporting the count.
    """
    certify(g, clique_construction_layout(g, c))
    return g.n - len(c.cliques)


# ---------------------------------------------------------------------------
# Graphs with a tree attached at every vertex.
# ---------------------------------------------------------------------------


def _tree_children(h: Graph, members: frozenset[int], root: int) -> dict[int, list[int]]:
    """Child lists of the induced tree on members, rooted at root.

    Raises if the induced subgraph is not a tree.
    """
    adj = h.adjacency()
    children: dict[int, list[int]] = {root: []}
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for w in sorted(adj[v]):
            if w in members and w not in children:
                children[w] = []
                children[v].append(w)
                frontier.append(w)
    inner_edges = sum(1 for u in members for w in adj[u] if w in members) // 2
    if len(children) != len(members) or inner_edges != len(members) - 1:
        raise ValueError(f"attachment at vertex {root} does not induce a tree")
    return children


def _has_odd_leaf(children: dict[int, list[int]], root: int) -> bool:
    depth = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in children[v]:
            depth[w] = depth[v] + 1
            stack.append(w)
    return any(not children[v] and depth[v] % 2 == 1 for v in children)


def _saturable(children: dict[int, list[int]], root: int) -> dict[int, bool]:
    """Which vertices can be consumed by pendant removals inside their subtree.

    A vertex is saturable when some child has only saturable children;
    pairing with that child works once each grandchild below it has been
    consumed first.  Leaves are not saturable.
    """
    sat: dict[int, bool] = {}
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    for v in reversed(order):
        sat[v] = any(all(sat[x] for x in children[c]) for c in children[v])
    return sat


def _consume(u: int, children: dict[int, list[int]], sat: dict[int, bool],
              pairs: list[tuple[int, int]], leftovers: list[int]) -> None:
    """Emit pendant pairs that delete u by pairing it with a chosen child."""
    c = min(c for c in children[u] if all(sat[x] for x in children[c]))
    for x in children[c]:
        _consume(x, children, sat, pairs, leftovers)
    leftovers.extend(d for d in children[u] if d != c)
    pairs.append((u, c))


def _standard_pairs(root: int, children: dict[int, list[int]],
                    pairs: list[tuple[int, int]]) -> None:
    """Greedy children-first pairing of a rooted subtree, in deletion order."""
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        if v != root:
            order.append(v)
        stack.extend(reversed(children[v]))
    paired: set[int] = set()
    for u in reversed(order):
        if u in paired:
            continue
        for w in children[u]:
            if w not in paired:
                paired.add(u)
                paired.add(w)
                pairs.append((u, w))
                break


def attach_trees_solve(g: Graph, h: Graph, attachment: dict[int, frozenset[int]]) -> ParameterResult:
    """Minimum searchers for a graph with a tree hung on every vertex.

    h must consist of g on vertices 0..g.n-1 plus, for each base vertex v,
    the tree induced on {v} | attachment[v].  Each tree needs a leaf at odd
    distance from its base vertex; violations name the vertex.  That alone
    does not guarantee the base vertex can be absorbed by pendant-edge
    removals, so when every tree can absorb its base on its own the
    ordering is assembled directly in linear time, and otherwise a global
    backtracking dismantle decides the instance, erroring on the blocking
    base vertex if none exists.
    """
    if h.n < g.n:
        raise ValueError("h has fewer vertices than g")
    base = set(range(g.n))
    extra = set(range(g.n, h.n))
    claimed: set[int] = set()
    for v, att in attachment.items():
        if v not in base:
            raise ValueError(f"attachment key {v} is not a base vertex")
        att_set = set(att)
        if att_set & base:
            raise ValueError(f"attachment at vertex {v} reuses base vertices")
        if att_set & claimed:
            raise ValueError(f"attachment at vertex {v} overlaps another attachment")
        claimed |= att_set
    if claimed != extra:
        raise ValueError("attachments do not partition the non-base vertices")

    owner = {w: v for v, att in attachment.items() for w in att}
    for u, w in g.edges:
        if not h.has_edge(u, w):
            raise ValueError(f"base edge ({u}, {w}) is missing from h")
    for u, w in h.edges:
        if u in base and w in base:
            if not g.has_edge(u, w):
                raise ValueError(f"edge ({u}, {w}) joins base vertices but is not in g")
        else:
            tu = u if u in base else owner[u]
            tw = w if w in base else owner[w]
            if tu != tw:
                raise ValueError(f"edge ({u}, {w}) crosses between different attachments")

    pairs: list[tuple[int, int]] = []
    stuck: list[int] = []
    for v in range(g.n):
        members = frozenset({v} | set(attachment.get(v, frozenset())))
        children = _tree_children(h, members, v)
        if not _has_odd_leaf(children, v):
            raise ValueError(f"tree attached at vertex {v} has no leaf at odd distance from it")
        sat = _saturable(children, v)
        if not any(all(sat[x] for x in children[c]) for c in children[v]):
            stuck.append(v)
            continue
        leftovers: list[int] = []
        _consume(v, children, sat, pairs, leftovers)
        for d in leftovers:
            _standard_pairs(d, children, pairs)

    if not stuck:
        ordering = DismantlingOrdering(tuple(edge_key(u, c) for u, c in pairs))
    else:
        found = pendent_dismantle(h)
        if found is None:
            raise ValueError(
                f"tree attached at vertex {stuck[0]} cannot absorb its base vertex"
                " by pendant-edge removals"
            )
        ordering = found
    strategy = dismantling_strategy(h, ordering)
    return ParameterResult(value=h.n - len(ordering), witness=strategy, method="dismantle")
