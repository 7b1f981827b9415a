"""Independent checks of the program's outputs.

Nothing here imports onemove.  Witnesses are replayed with small
implementations of the paper's three processes written from their
definitions, and values are compared with references computed here:

- forests: n - nu(T), with nu from networkx's Hopcroft-Karp matching;
- unicyclic graphs and cactus forests: n - nu(G), nu from a dynamic
  program over the cycle blocks.  On a cactus every matching has the
  uniqueness property (mu = nu): an alternating cycle of the bipartite
  subgraph is a cycle block, and swapping the sides of one of its
  matched edges removes it from that subgraph without touching any
  other cycle;
- random graphs (at most 24 vertices): the minimum forcing set, by a
  vectorized sweep over vertex subsets in order of size, computed when
  the instance is generated;
- dismantlable graphs and K(p+5) plus p pendants: closed forms carried in
  the instance record.
"""

from __future__ import annotations

import json

import numpy as np

Edge = tuple[int, int]


def parse(text: str) -> tuple[int, list[Edge], tuple[int, ...]]:
    """Read back a generated edge list: (n, edges, preoccupied)."""
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, line.split())) for line in lines[1 : 1 + m]]
    pre: tuple[int, ...] = ()
    for line in lines[1 + m :]:
        if line.startswith("preoccupied"):
            pre = tuple(map(int, line.split()[1:]))
    return n, edges, pre


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


# ---------------------------------------------------------------------------
# Witness replay.
# ---------------------------------------------------------------------------


def replay_strategy(n: int, edges, actions, preoccupied=()) -> str | None:
    """Replay a sliding strategy; None when it is legal and clears the graph.

    A searcher is placed on an unoccupied vertex that still has a
    contaminated edge (or no edge at all).  A searcher that has not slid
    may slide along its vertex's only contaminated edge, clearing it.  An
    edge also clears once both ends are occupied.  Success means every
    edge cleared and every vertex held a searcher at some point.
    """
    adj = adjacency(n, edges)
    contaminated = [len(a) for a in adj]  # contaminated incident edges
    cleared: set[Edge] = set()
    occupied: set[int] = set()
    slid: set[int] = set()
    visited: set[int] = set()

    def clear(u: int, v: int) -> None:
        e = (u, v) if u < v else (v, u)
        if e not in cleared:
            cleared.add(e)
            contaminated[u] -= 1
            contaminated[v] -= 1

    def occupy(v: int) -> None:
        occupied.add(v)
        visited.add(v)
        for w in adj[v]:
            if w in occupied:
                clear(v, w)

    for v in preoccupied:
        if not 0 <= v < n or v in occupied:
            return f"bad preoccupied vertex {v}"
        occupy(v)
    for i, act in enumerate(actions):
        if not isinstance(act, list) or not act or not all(isinstance(x, int) for x in act[1:]):
            return f"action {i} malformed: {act!r}"
        if act[0] == "place" and len(act) == 2:
            v = act[1]
            if not 0 <= v < n or v in occupied or (adj[v] and not contaminated[v]):
                return f"action {i}: illegal place on {v}"
            occupy(v)
        elif act[0] == "slide" and len(act) == 3:
            u, v = act[1], act[2]
            if not (0 <= u < n and 0 <= v < n) or u not in occupied or u in slid:
                return f"action {i}: illegal slide from {u}"
            live = [w for w in adj[u] if ((u, w) if u < w else (w, u)) not in cleared]
            if live != [v]:
                return f"action {i}: ({u}, {v}) is not the only contaminated edge at {u}"
            occupied.discard(u)
            clear(u, v)
            slid.add(v)
            occupy(v)
        else:
            return f"action {i} malformed: {act!r}"
    if len(cleared) != len(edges):
        return f"strategy leaves {len(edges) - len(cleared)} edges contaminated"
    if len(visited) != n:
        return f"strategy never visits {n - len(visited)} vertices"
    return None


def forcing_closure(adj, initial) -> set[int]:
    """Constrained zero forcing: only initial vertices force, once each."""
    colored = set(initial)
    spent: set[int] = set()
    progress = True
    while progress:
        progress = False
        for v in initial:
            if v in spent:
                continue
            white = [w for w in adj[v] if w not in colored]
            if len(white) == 1:
                colored.add(white[0])
                spent.add(v)
                progress = True
    return colored


def deduction_closure(adj, counts: dict[int, int]) -> set[int]:
    """Deduction game, all eligible vertices firing each stage: a vertex
    whose unmoved searchers cover its unprotected neighbours sends one to
    each; moved searchers never move again."""
    protected = set(counts)
    unmoved = dict(counts)
    while True:
        stage = {}
        for v, stock in unmoved.items():
            targets = [w for w in adj[v] if w not in protected]
            if targets and len(targets) <= stock:
                stage[v] = targets
        if not stage:
            return protected
        for v, targets in stage.items():
            unmoved[v] -= len(targets)
            protected.update(targets)


# ---------------------------------------------------------------------------
# References.
# ---------------------------------------------------------------------------

_SUBSETS: dict[tuple[int, int], np.ndarray] = {}


def _subset_masks(n: int, k: int) -> np.ndarray:
    """Bitmasks of all k-subsets of range(n), built by the Pascal recurrence."""
    key = (n, k)
    if key not in _SUBSETS:
        if k == 0:
            out = np.zeros(1, dtype=np.uint32)
        elif k > n:
            out = np.zeros(0, dtype=np.uint32)
        else:
            with_top = _subset_masks(n - 1, k - 1) | np.uint32(1 << (n - 1))
            out = np.concatenate([_subset_masks(n - 1, k), with_top])
        _SUBSETS[key] = out
    return _SUBSETS[key]


def czf_value(n: int, edges) -> int:
    """Fewest initially coloured vertices whose constrained forcing colours
    everything, per connected component (an isolated vertex costs one)."""
    if n > 24:
        raise ValueError("czf reference is limited to 24 vertices")
    adj = adjacency(n, edges)
    seen = [False] * n
    total = 0
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        for v in comp:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        total += _component_czf(comp, adj)
    return total


def _component_czf(comp: list[int], adj) -> int:
    size = len(comp)
    if size == 1:
        return 1
    local = {v: i for i, v in enumerate(comp)}
    nbr = [np.uint32(sum(1 << local[w] for w in adj[v])) for v in comp]
    full = np.uint32((1 << size) - 1)
    one = np.uint32(1)
    for k in range((size + 1) // 2, size + 1):
        start = _subset_masks(size, k)
        colored = start.copy()
        spent = np.zeros_like(start)
        changed = True
        while changed:
            changed = False
            for i in range(size):
                bit = np.uint32(1 << i)
                white = nbr[i] & ~colored
                fire = ((start & bit) != 0) & ((spent & bit) == 0) & (white != 0) & ((white & (white - one)) == 0)
                if fire.any():
                    colored[fire] |= white[fire]
                    spent[fire] |= bit
                    changed = True
        if bool((colored == full).any()):
            return k
    raise RuntimeError("the whole vertex set always forces itself")


def forest_value(n: int, edges) -> int:
    """n - nu(T) for a forest, nu by networkx's bipartite matching."""
    import networkx as nx
    from networkx.algorithms import bipartite

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    matched = 0
    for comp in nx.connected_components(g):
        if len(comp) == 1:
            continue
        sub = g.subgraph(comp)
        top = {v for v, side in nx.bipartite.color(sub).items() if side == 0}
        matched += len(bipartite.hopcroft_karp_matching(sub, top_nodes=top)) // 2
    return n - matched


def cactus_matching(n: int, edges) -> int:
    """Maximum matching size of a cactus forest, by dynamic programming.

    DFS tree plus back edges; each back edge closes one cycle block.  For
    each vertex v, free[v] and matched[v] are the best matchings of the
    blocks hanging below v with v left unmatched or matched inside them;
    a cycle block is a path program over its vertices.
    """
    adj = adjacency(n, edges)
    parent = [-1] * n
    depth = [-1] * n
    order: list[int] = []
    cycles_at: list[list[list[int]]] = [[] for _ in range(n)]
    on_cycle = [False] * n  # tree edge (parent[v], v) belongs to a cycle
    for root in range(n):
        if depth[root] != -1:
            continue
        depth[root] = 0
        order.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
            elif depth[w] == -1:
                parent[w], depth[w] = v, depth[v] + 1
                order.append(w)
                stack.append((w, iter(adj[w])))
            elif w != parent[v] and depth[w] < depth[v]:
                path = [v]
                while parent[path[-1]] != w:
                    on_cycle[path[-1]] = True
                    path.append(parent[path[-1]])
                on_cycle[path[-1]] = True
                path.reverse()  # down the tree from w's child to v, back to w
                cycles_at[w].append(path)
    free = [0] * n
    matched = [_NONE] * n
    for v in reversed(order):
        blocks = [
            (max(free[c], matched[c]), free[c] + 1)
            for c in adj[v]
            if parent[c] == v and not on_cycle[c]
        ]
        blocks.extend(_cycle_block(path, free, matched) for path in cycles_at[v])
        free[v] = sum(b[0] for b in blocks)
        matched[v] = free[v] + max((b[1] - b[0] for b in blocks), default=_NONE)
    return sum(max(free[r], matched[r]) for r in range(n) if parent[r] == -1)


_NONE = float("-inf")


def _cycle_block(path: list[int], free, matched) -> tuple[float, float]:
    """(top unmatched, top matched) for the cycle top-path[0]-...-path[-1]-top.

    States map (top taken by the first edge, current vertex taken by the
    edge from its predecessor) to the best count so far.
    """
    states = {(True, True): 1, (False, False): 0}
    for c in path[:-1]:
        nxt: dict[tuple[bool, bool], float] = {}
        for (top, taken), val in states.items():
            options = [((top, False), val + free[c])]
            if not taken:
                options = [((top, True), val + free[c] + 1),
                           ((top, False), val + max(free[c], matched[c]))]
            for key, value in options:
                nxt[key] = max(nxt.get(key, _NONE), value)
        states = nxt
    last = path[-1]
    out = [_NONE, _NONE]
    for (top, taken), val in states.items():
        if taken:
            out[top] = max(out[top], val + free[last])
            continue
        out[top] = max(out[top], val + max(free[last], matched[last]))
        if not top:
            out[1] = max(out[1], val + free[last] + 1)
    return out[0], out[1]


def uniqueness_witness(n: int, edges, matching, v1, v2) -> str | None:
    """None when matching[i] joins v1[i] to v2[i] and is the only perfect
    matching of the bipartite graph of all edges between v1 and v2."""
    present = {(u, v) if u < v else (v, u) for u, v in edges}
    k = len(matching)
    if len(v1) != k or len(v2) != k or len(set(v1) | set(v2)) != 2 * k:
        return "matching sides do not partition the matched vertices"
    for (a, b), x, y in zip(matching, v1, v2):
        if {a, b} != {x, y} or ((a, b) if a < b else (b, a)) not in present:
            return f"({a}, {b}) is not a matched edge between the sides"
    options = [[j for j, y in enumerate(v2) if ((x, y) if x < y else (y, x)) in present] for x in v1]

    def count(i: int, used: int) -> int:
        if i == k:
            return 1
        total = 0
        for j in options[i]:
            if not used >> j & 1:
                total += count(i + 1, used | 1 << j)
                if total > 1:
                    break
        return total

    return None if count(0, 0) == 1 else "the sides admit a second perfect matching"


def check_solve(instance: dict, code: int, out: str, err: str) -> str | None:
    """Why one `onemove solve` output is wrong, or None."""
    expect = instance["expect"]
    if expect.get("refusal"):
        if code == 2 and "refused" in err:
            return None
        return f"expected a ceiling refusal (exit 2), got exit {code}: {err.strip()[:200]}"
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    report, why = parse_report(out)
    if why:
        return why
    n, edges, pre = parse(instance["text"])
    value, witness = report["value"], report["witness"]
    if report["parameter"] != ("additional-searchers" if pre else "czf"):
        return f"unexpected parameter {report['parameter']!r}"
    if witness.get("kind") == "strategy":
        actions = witness.get("actions")
        if not isinstance(actions, list) or sorted(witness.get("preoccupied", [])) != sorted(pre):
            return "malformed strategy witness"
        why = replay_strategy(n, edges, actions, pre)
        if why:
            return f"witness replay: {why}"
        if sum(1 for a in actions if a[0] == "place") != value:
            return "value differs from the witness's placement count"
    elif witness.get("kind") == "forcing-set":
        verts = witness.get("vertices")
        if not isinstance(verts, list) or not all(isinstance(v, int) and 0 <= v < n for v in verts):
            return "malformed forcing-set witness"
        if len(set(verts)) != value:
            return "value differs from the forcing set's size"
        if len(forcing_closure(adjacency(n, edges), sorted(set(verts)))) != n:
            return "witness replay: forcing set does not colour every vertex"
    else:
        return f"unknown witness kind {witness.get('kind')!r}"
    reference = expect["reference"]
    if reference == "preoccupied-bound":
        # The preoccupied searchers plus the extra ones make a strategy for
        # the plain problem, so together they cost at least czf = n - nu.
        floor = n - cactus_matching(n, edges) - len(pre)
        return None if value >= max(floor, 0) else f"value {value} below the lower bound {floor}"
    if reference == "forest":
        wanted = forest_value(n, edges)
    elif reference == "cactus-dp":
        wanted = n - cactus_matching(n, edges)
    else:
        wanted = expect["value"]
    return None if value == wanted else f"value {value}, reference {wanted}"


def check_oracles(instance: dict, code: int, out: str, err: str) -> str | None:
    """Why one oracle-identity output is wrong, or None."""
    if code != 0:
        return f"oracle call failed: {err.strip()[:200]}"
    n, edges, _ = parse(instance["text"])
    adj = adjacency(n, edges)
    try:
        data = json.loads(out)
        (czf, forcing), (d, layout), (cfms, actions), (mu, matching, v1, v2) = (
            data["czf"], data["d"], data["cfms"], data["mu"]
        )
        counts = {int(v): c for v, c in layout.items()}
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed oracle output: {exc}"
    if not czf == d == cfms == n - mu == instance["expect"]["value"]:
        return f"identity fails: czf={czf} d={d} cfms={cfms} n-mu={n - mu} reference={instance['expect']['value']}"
    if len(set(forcing)) != czf or len(forcing_closure(adj, sorted(set(forcing)))) != n:
        return "czf witness does not replay"
    if sum(counts.values()) != d or len(deduction_closure(adj, counts)) != n:
        return "deduction layout does not replay"
    why = replay_strategy(n, edges, actions)
    if why or sum(1 for a in actions if a[0] == "place") != cfms:
        return f"cfms strategy does not replay: {why or 'placement count'}"
    if len(matching) != mu:
        return "mu witness size differs from mu"
    return uniqueness_witness(n, edges, matching, v1, v2)


def parse_report(stdout: str) -> tuple[dict | None, str | None]:
    """Parse a solve report; (report, None) or (None, reason)."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"
    if not isinstance(report, dict):
        return None, "report is not an object"
    for key, kind in (("parameter", str), ("value", int), ("method", str), ("witness", dict)):
        if not isinstance(report.get(key), kind):
            return None, f"report field {key!r} missing or mistyped"
    return report, None

