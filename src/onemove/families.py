"""Structure-aware solvers for graph families with closed-form answers.

Each solver returns the minimum searcher count together with a witness
that replays on the simulation engines: a sliding strategy for trees,
unicyclic graphs, and attached-tree graphs, and a searcher layout for
clique-constructed graphs.  The solvers that solver.solve routes to
leave the replay to it, the clique method included:
solve(g, method="clique", construction=c) validates a construction,
builds its layout and certifies it.  attach_trees_solve reports without
solve, so it replays its witness once itself.
Pendant-edge dismantling orderings act as certificates in their own
right; any two orderings of the same graph have equal length, so the
count they certify is well defined.  Trees, dismantling and attached
trees all read the one leaf peel, graphs.peel_leaves, with no vertex
occupied: deleting any pendant edge of a dismantlable graph leaves a
dismantlable graph, so no search is needed.  Unicyclic graphs are cactus
forests, so a shape check hands them to cactus.cactus_solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cactus import CactusInstance, cactus_solve
from .deduction import Layout
from .engines import Strategy, certify
from .exact import ParameterResult
from .graphs import Edge, Graph, classify, delete_vertices, edge_key, peel_leaves

__all__ = [
    "DismantlingOrdering",
    "CliqueConstruction",
    "tree_solve",
    "unicyclic_solve",
    "pendent_dismantle",
    "dismantling_strategy",
    "pairs_strategy",
    "clique_construction_layout",
    "attach_trees_solve",
]


@dataclass(frozen=True)
class DismantlingOrdering:
    """Sequence of pendant edges whose stepwise removal empties the graph.

    Removing a pendant edge deletes both endpoints.  The ordering is valid
    when every listed edge is pendant in the residual graph at its turn and
    nothing but isolated vertices survives at the end.  pendent_dismantle
    also keeps its peel's (degree-1 end, other end) pairs, outside equality.
    """

    edges: tuple[Edge, ...]
    pairs: tuple[tuple[int, int], ...] = field(default=(), compare=False, repr=False)

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


def _peel(g: Graph) -> tuple[list[tuple[int, int]], dict[int, set[int]]]:
    """graphs.peel_leaves on all of g with no vertex occupied: the peeled
    pairs (degree-1 end, other end) in deletion order, and the residual."""
    adj = {v: set(ws) for v, ws in enumerate(g.adjacency())}
    steps = peel_leaves(adj, set(), set(adj))
    return [(v, u) for _, v, u in steps], adj


def pairs_strategy(g: Graph, oriented: list[Edge] | tuple[Edge, ...]) -> Strategy:
    """Strategy for pendant pairs (degree-1 end, other end) in deletion
    order: place on every vertex but the other ends, then slide each
    degree-1 end across its edge in turn."""
    targets = {p for _, p in oriented}
    actions: list[tuple] = [("place", v) for v in range(g.n) if v not in targets]
    actions.extend(("slide", c, p) for c, p in oriented)
    return Strategy(tuple(actions))


def tree_solve(t: Graph) -> ParameterResult:
    """Minimum searchers for a forest, with a replayable sliding strategy.

    A forest peels down to isolated vertices.  Placing a searcher on
    every vertex except the other ends of the k peeled pairs, then
    sliding each degree-1 end across its edge in deletion order, clears
    the forest with n - k searchers.
    """
    shape = classify(t)
    if not shape.is_cactus or shape.cycles:
        raise ValueError("input graph is not a forest")
    pairs, _ = _peel(t)
    return ParameterResult(value=t.n - len(pairs), witness=pairs_strategy(t, pairs), method="tree")


# ---------------------------------------------------------------------------
# Unicyclic graphs.
# ---------------------------------------------------------------------------


def unicyclic_solve(g: Graph) -> ParameterResult:
    """Minimum searchers for a connected graph with exactly one cycle.

    Such a graph is a cactus, so once its shape is checked the cactus
    solver decides it: pendant trees fall to the leaf rules and the bare
    cycle, if it survives them, takes ceil(|C|/2) searchers.
    """
    if not classify(g).is_unicyclic:
        raise ValueError("input graph is not connected unicyclic")
    return replace(cactus_solve(CactusInstance(g)), method="unicyclic", trace=())


# ---------------------------------------------------------------------------
# Pendant-edge dismantling.
# ---------------------------------------------------------------------------


def pendent_dismantle(g: Graph, *, stats: dict | None = None) -> DismantlingOrdering | None:
    """The greedy pendant-edge dismantling ordering, or None if an edge survives.

    Greedy choice is safe (see graphs.peel_leaves, all of whose steps are
    rule 1 here), so the one leaf peel decides dismantlability without
    search; solver.solve builds its strategy from the ordering's pairs.
    A stats dict gets "backtracks" = 0: the keyword stays because
    perfbench's tracer passes it.
    """
    peeled, residual = _peel(g)
    if stats is not None:
        stats["backtracks"] = 0
    if any(residual.values()):
        return None
    return DismantlingOrdering(tuple(edge_key(a, b) for a, b in peeled), tuple(peeled))


def _replay_ordering(g: Graph, o: DismantlingOrdering) -> list[tuple[int, int]]:
    """Validate an ordering and orient each edge as (degree-1 endpoint, other)."""
    adj = {v: set(ws) for v, ws in enumerate(g.adjacency())}
    oriented: list[tuple[int, int]] = []
    for i, (a, b) in enumerate(o.edges):
        if a not in adj or b not in adj:
            raise ValueError(f"step {i}: edge ({a}, {b}) touches a deleted vertex")
        if not g.has_edge(a, b):
            raise ValueError(f"step {i}: ({a}, {b}) is not an edge")
        if len(adj[a]) == 1:
            oriented.append((a, b))
        elif len(adj[b]) == 1:
            oriented.append((b, a))
        else:
            raise ValueError(f"step {i}: edge ({a}, {b}) is not pendant in the residual graph")
        delete_vertices(adj, set(), (a, b))
    if any(adj.values()):
        raise ValueError("ordering ends with edges remaining")
    return oriented


def dismantling_strategy(g: Graph, o: DismantlingOrdering) -> Strategy:
    """Sliding strategy that realizes a dismantling ordering's searcher
    count, n minus the ordering's length.

    Replays the ordering step by step and raises if any step is not a
    pendant edge of the residual graph or if edges survive at the end.
    Places a searcher on the degree-1 endpoint of every deleted edge and on
    every surviving vertex, then slides each degree-1 endpoint across its
    edge in deletion order.
    """
    return pairs_strategy(g, _replay_ordering(g, o))


# ---------------------------------------------------------------------------
# Clique constructions.
# ---------------------------------------------------------------------------


def _validate_clique_construction(g: Graph, c: CliqueConstruction) -> None:
    k = len(c.cliques)
    if k == 0:
        raise ValueError("construction must contain at least one clique")
    if len(c.anchors) != k or len(c.attachments) != k - 1:
        raise ValueError("anchor or attachment count does not match the clique count")
    parts = [("clique", c.cliques), ("anchor", [[a] for a in c.anchors]), ("attachment", c.attachments)]
    for part, members in parts:
        for i, vs in enumerate(members):
            for v in vs:  # a bool is an int to Python: True would pass for vertex 1
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"{part} {i} holds {v!r}, not a vertex index")
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
    """Witness layout for a valid construction: everything except anchors,
    so its total is n minus one anchor per clique.  Not replayed here."""
    _validate_clique_construction(g, c)
    return Layout.standard(v for v in range(g.n) if v not in set(c.anchors))


# ---------------------------------------------------------------------------
# Graphs with a tree attached at every vertex.
# ---------------------------------------------------------------------------


def _has_odd_leaf(h: Graph, members: frozenset[int], root: int) -> bool:
    """Whether the tree induced on members has a leaf at odd distance from
    root.  Raises if the induced subgraph is not a tree."""
    adj = h.adjacency()
    depth = {root: 0}
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w in members and w not in depth:
                depth[w] = depth[v] + 1
                frontier.append(w)
    inner = {u: sum(1 for w in adj[u] if w in members) for u in members}
    if len(depth) != len(members) or sum(inner.values()) != 2 * (len(members) - 1):
        raise ValueError(f"attachment at vertex {root} does not induce a tree")
    return any(depth[v] % 2 == 1 and inner[v] == 1 for v in depth)


def attach_trees_solve(g: Graph, h: Graph, attachment: dict[int, frozenset[int]]) -> ParameterResult:
    """Minimum searchers for a graph with a tree hung on every vertex.

    h must consist of g on vertices 0..g.n-1 plus, for each base vertex v,
    the tree induced on {v} | attachment[v].  Each tree needs a leaf at odd
    distance from its base vertex; violations name the vertex.  That alone
    does not guarantee the base vertex can be absorbed by pendant-edge
    removals, so the greedy pendant peel of h decides the instance, and a
    failure names the least base vertex that keeps an edge.
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

    for v in range(g.n):
        members = frozenset({v} | set(attachment.get(v, frozenset())))
        if not _has_odd_leaf(h, members, v):
            raise ValueError(f"tree attached at vertex {v} has no leaf at odd distance from it")

    pairs, residual = _peel(h)
    blocked = min((v for v in range(g.n) if residual.get(v)), default=None)
    if blocked is not None:
        raise ValueError(
            f"tree attached at vertex {blocked} cannot absorb its base vertex"
            " by pendant-edge removals"
        )
    strategy = pairs_strategy(h, pairs)
    certify(h, strategy)
    return ParameterResult(value=h.n - len(pairs), witness=strategy, method="dismantle")
