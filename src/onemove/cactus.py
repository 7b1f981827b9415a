"""Cactus solver for the variant where some vertices start occupied.

Degree-1 vertices fall to four local rules keyed to which of the leaf
and its neighbor already hold a searcher.  Once no degree-1 vertex is
left, a cactus forest is a collection of cycles glued at cut vertices
and always exposes a cycle that is isolated or meets the rest of the
graph in a single branching vertex; those fall to a case analysis that
compares the cost of the whole cycle with the cost of the path avoiding
the branching vertex.  Solvers here compute placements only: slides are
reconstructed greedily, and every finished plan is replayed through the
engine before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engines import Strategy, certify, complete_with_slides
from .graphs import (
    Graph,
    classify,
    connected_components,
    edge_key,
    induced_subgraph,
    parse_edge_list,
    write_edge_list,
)

__all__ = [
    "CactusInstance",
    "CactusPlan",
    "parse_cactus_instance",
    "write_cactus_instance",
    "preoccupied_path_solve",
    "preoccupied_cycle_solve",
    "cactus_solve",
]


@dataclass(frozen=True)
class CactusInstance:
    """A cactus forest together with the vertices that start occupied."""

    graph: Graph
    preoccupied: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        pre = frozenset(self.preoccupied)
        object.__setattr__(self, "preoccupied", pre)
        for v in pre:
            if not 0 <= v < self.graph.n:
                raise ValueError(f"preoccupied vertex {v} out of range")
        if not classify(self.graph).is_cactus:
            raise ValueError("graph is not a cactus forest")


@dataclass(frozen=True)
class CactusPlan:
    """Solver output: extra searchers beyond the pre-occupying ones,
    a full replayable strategy, and the rule applications that led there."""

    additional_searchers: int
    strategy: Strategy
    trace: tuple[str, ...]


def parse_cactus_instance(text: str) -> CactusInstance:
    """Parse an edge list followed by an optional line "preoccupied v1 v2 ..."."""
    kept: list[str] = []
    pre: frozenset[int] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if parts and parts[0] == "preoccupied":
            if pre is not None:
                raise ValueError(f"line {lineno}: second preoccupied line")
            try:
                pre = frozenset(int(p) for p in parts[1:])
            except ValueError:
                raise ValueError(f"line {lineno}: expected integers after 'preoccupied'") from None
        else:
            kept.append(raw)
    return CactusInstance(parse_edge_list("\n".join(kept)), pre or frozenset())


def write_cactus_instance(inst: CactusInstance) -> str:
    """Serialize; parse_cactus_instance inverts this."""
    pre = " ".join(str(v) for v in sorted(inst.preoccupied))
    return write_edge_list(inst.graph) + ("preoccupied " + pre).rstrip() + "\n"


# ---------------------------------------------------------------------------
# Local rules for degree-1 vertices, shared by all three solvers.  The
# residual graph lives in an adjacency dict keyed by original labels;
# deleting a vertex stands for its edges being cleared, with any slide
# needed to get there deferred to the greedy completion.
# ---------------------------------------------------------------------------


def _delete(adj: dict[int, set[int]], pre: set[int], gone: tuple[int, ...]) -> None:
    for w in gone:
        for x in adj[w]:
            if x not in gone:
                adj[x].discard(w)
    for w in gone:
        del adj[w]
        pre.discard(w)


def _leaf_rules_fixpoint(
    adj: dict[int, set[int]], pre: set[int], places: list[int], trace: list[str]
) -> None:
    """Resolve degree-1 vertices until none remain.

    Rule 1: leaf and neighbor both unoccupied: place on the leaf, both go.
    Rule 2: both occupied: the leaf alone goes, the neighbor keeps its
    searcher.  Rule 3: occupied leaf: its searcher slides in, both go.
    Rule 4: occupied neighbor: its searcher slides out, both go.  Lowest
    rule number first, lowest leaf within a rule.
    """
    while True:
        best: tuple[int, int, int] | None = None
        for v, ws in adj.items():
            if len(ws) != 1:
                continue
            u = next(iter(ws))
            if v in pre:
                rule = 2 if u in pre else 3
            else:
                rule = 4 if u in pre else 1
            if best is None or (rule, v) < (best[0], best[1]):
                best = (rule, v, u)
        if best is None:
            return
        rule, v, u = best
        trace.append(f"step{rule} v={v} u={u}")
        if rule == 1:
            places.append(v)
        _delete(adj, pre, (v,) if rule == 2 else (v, u))


def _sweep_isolated(
    adj: dict[int, set[int]], pre: set[int], places: list[int], trace: list[str]
) -> None:
    for v in sorted(k for k, ws in adj.items() if not ws):
        if v in pre:
            trace.append(f"isolated v={v} preoccupied")
        else:
            places.append(v)
            trace.append(f"isolated v={v} placed")
        _delete(adj, pre, (v,))


def _path_places(g: Graph, pre: frozenset[int]) -> tuple[int, list[int], list[str]]:
    """Leaf rules plus isolated sweep; dissolves any disjoint union of paths."""
    adj = {v: set(ws) for v, ws in enumerate(g.adjacency())}
    live_pre = set(pre)
    places: list[int] = []
    trace: list[str] = []
    _leaf_rules_fixpoint(adj, live_pre, places, trace)
    _sweep_isolated(adj, live_pre, places, trace)
    if adj:
        raise RuntimeError("leaf rules did not dissolve the path; this is a bug")
    return len(places), places, trace


def preoccupied_path_solve(p: Graph, preoccupied=frozenset()) -> tuple[int, Strategy]:
    """Fewest extra searchers to clear a disjoint union of paths."""
    pre = frozenset(preoccupied)
    for v in pre:
        if not 0 <= v < p.n:
            raise ValueError(f"preoccupied vertex {v} out of range")
    if p.m != p.n - len(connected_components(p)) or any(
        p.degree(v) > 2 for v in range(p.n)
    ):
        raise ValueError("input graph is not a disjoint union of paths")
    value, places, _ = _path_places(p, pre)
    strategy = complete_with_slides(p, places, preoccupied=pre)
    certify(p, strategy, pre)
    return value, strategy


def _ring_feasible(occupied: list[bool], pinned: int | None = None) -> bool:
    """Whether the occupied positions can clear the ring they sit on.

    Clearing works iff every unoccupied run has length at most 2, each
    length-2 run receives a slide from both flanking searchers and each
    length-1 run from at least one, no searcher slides twice, and, unless
    the ring is fully occupied, some two occupied positions are adjacent
    (an alternating layout deadlocks: nobody's first slide is ever legal).
    A pinned position contributes occupation but may not slide.
    """
    ring = len(occupied)
    if all(occupied):
        return True
    if not any(occupied):
        return False
    start = next(
        (i for i in range(ring) if occupied[i] and occupied[i - 1]), None
    )
    if start is None:
        return False
    # Walk the ring from inside a block; greedily spend each searcher's
    # slide on the run to its left when that run still needs it.
    capacity = {i: 0 if i == pinned else 1 for i in range(ring) if occupied[i]}
    i = start
    seen = 0
    while seen < ring:
        if not occupied[i % ring]:
            run_start = i
            while not occupied[i % ring]:
                i += 1
            run_len = i - run_start
            seen += run_len
            left, right = (run_start - 1) % ring, i % ring
            if run_len == 1:
                if capacity[left]:
                    capacity[left] -= 1
                elif capacity[right]:
                    capacity[right] -= 1
                else:
                    return False
            elif run_len == 2:
                if capacity[left] and capacity[right]:
                    capacity[left] -= 1
                    capacity[right] -= 1
                else:
                    return False
            else:
                return False
        else:
            i += 1
            seen += 1
    return True


def _ring_minimum_occupation(forced: list[bool]) -> list[int]:
    """Smallest clearing superset of the forced positions on a ring.

    Position 0 must be forced.  Returns all occupied positions of a
    cheapest feasible choice, found by scanning the ring once per seam
    option with a state machine over (current run info, spare slide
    capacity, whether two adjacent occupied positions exist yet).
    """
    ring = len(forced)
    if not forced[0]:
        raise ValueError("position 0 must be forced")
    best: tuple[int, list[int]] | None = None
    for seam in (0, 1):
        # States: ("O", cap, len2) inside an occupied run, where cap is the
        # newest searcher's spare slide and len2 tracks run length >= 2;
        # ("U", a, leftcap) inside an unoccupied run of length a backed by
        # leftcap spare capacity on its left flank.  big records whether
        # any occupied run reached length 2.
        initial = (("O", 1 - seam, False), False)
        frontier: dict[tuple, tuple[int, list[bool]]] = {initial: (0, [True])}
        for p in range(1, ring):
            nxt: dict[tuple, tuple[int, list[bool]]] = {}

            def push(state: tuple, cost: int, chosen: list[bool]) -> None:
                cur = nxt.get(state)
                if cur is None or cost < cur[0]:
                    nxt[state] = (cost, chosen)

            for ((kind, x, y), big), (cost, chosen) in frontier.items():
                for occ in (True, False):
                    if forced[p] and not occ:
                        continue
                    add = 0 if forced[p] else int(occ)
                    if kind == "O":
                        if occ:
                            push((("O", 1, True), True), cost + add, chosen + [True])
                        else:
                            push((("U", 1, x), big), cost, chosen + [False])
                    else:
                        if occ:
                            if x == 1:
                                if y:
                                    push((("O", 1, False), big), cost + add, chosen + [True])
                                push((("O", 0, False), big), cost + add, chosen + [True])
                            else:
                                if y:
                                    push((("O", 0, False), big), cost + add, chosen + [True])
                        elif x == 1:
                            push((("U", 2, y), big), cost, chosen + [False])
            frontier = nxt
        for ((kind, x, y), big), (cost, chosen) in frontier.items():
            if kind == "O":
                feasible = True
            elif x == 1:
                feasible = big and (y == 1 or seam == 1)
            else:
                feasible = big and y == 1 and seam == 1
            if feasible and (best is None or cost < best[0]):
                best = (cost, chosen)
    if best is None:
        raise RuntimeError("ring occupation search failed; this is a bug")
    return [p for p, occ in enumerate(best[1]) if occ]


def _cycle_places(
    g: Graph, pre: frozenset[int], rotation: tuple[int, ...]
) -> tuple[int, list[int], str]:
    """Fewest extra searchers for a single cycle, with the case label.

    No occupied vertex: a fixed pattern of ceil(n/2) placements.  Two
    occupied vertices adjacent: their shared edge clears on its own, so
    the remaining path decides.  Otherwise a ring scan finds the cheapest
    placement set whose occupied runs satisfy the slide-capacity rules;
    the label reports what the chosen optimum does at the lowest occupied
    vertex u: its searcher rests (a), it must slide (b), or a new searcher
    lands next to it (c).
    """
    n = len(rotation)
    if not pre:
        places = [rotation[0], rotation[1]]
        places.extend(rotation[j] for j in range(3, n - 1, 2))
        return len(places), places, "none"
    adjacent = sorted(
        tuple(sorted((rotation[i], rotation[(i + 1) % n])))
        for i in range(n)
        if rotation[i] in pre and rotation[(i + 1) % n] in pre
    )
    if adjacent:
        u, w = adjacent[0]
        value, places, _ = _path_places(Graph(g.n, g.edges - {edge_key(u, w)}), pre)
        return value, places, "adjacent"
    u = min(pre)
    at = rotation.index(u)
    turned = rotation[at:] + rotation[:at]
    forced = [v in pre for v in turned]
    occupied_positions = _ring_minimum_occupation(forced)
    places = sorted(turned[p] for p in occupied_positions if turned[p] not in pre)
    occupied = [p in set(occupied_positions) for p in range(n)]
    if _ring_feasible(occupied, pinned=0):
        label = "a"
    elif turned[1] in places or turned[-1] in places:
        label = "c"
    else:
        label = "b"
    return len(places), places, label


def preoccupied_cycle_solve(c: Graph, preoccupied=frozenset()) -> tuple[int, Strategy]:
    """Fewest extra searchers to clear a single cycle."""
    pre = frozenset(preoccupied)
    for v in pre:
        if not 0 <= v < c.n:
            raise ValueError(f"preoccupied vertex {v} out of range")
    if c.n < 3 or c.m != c.n or any(c.degree(v) != 2 for v in range(c.n)) or len(
        connected_components(c)
    ) != 1:
        raise ValueError("input graph is not a cycle")
    value, places, _ = _cycle_places(c, pre, classify(c).cycles[0])
    strategy = complete_with_slides(c, places, preoccupied=pre)
    certify(c, strategy, pre)
    return value, strategy


def cactus_solve(inst: CactusInstance) -> CactusPlan:
    """Fewest extra searchers for a cactus forest, with plan and trace.

    Alternates the degree-1 rules with cycle elimination.  An isolated
    cycle is solved outright.  A leaf cycle C with branching vertex v is
    compared against the path P that omits v: their costs differ by at
    most one, and which side of the dichotomy holds decides whether P is
    cleared now (keeping v for the rest of the graph) or all of C goes.
    Cases 5.1/5.2 apply when v starts occupied, 5.3/5.4 when it does not.
    """
    g = inst.graph
    adj = {v: set(ws) for v, ws in enumerate(g.adjacency())}
    pre = set(inst.preoccupied)
    places: list[int] = []
    trace: list[str] = []
    while adj:
        _leaf_rules_fixpoint(adj, pre, places, trace)
        _sweep_isolated(adj, pre, places, trace)
        if not adj:
            break
        residual, rel = induced_subgraph(g, sorted(adj))
        inv = {new: old for old, new in rel.items()}
        cycles = [tuple(inv[x] for x in cyc) for cyc in classify(residual).cycles]

        isolated_cycles = sorted(
            cyc for cyc in cycles if all(len(adj[w]) == 2 for w in cyc)
        )
        if isolated_cycles:
            for cyc in isolated_cycles:
                sub, srel = induced_subgraph(g, sorted(cyc))
                sinv = {new: old for old, new in srel.items()}
                val, pl, label = _cycle_places(
                    sub,
                    frozenset(srel[w] for w in cyc if w in pre),
                    tuple(srel[w] for w in cyc),
                )
                places.extend(sinv[x] for x in pl)
                listing = ",".join(str(w) for w in cyc)
                trace.append(f"isolated-cycle ({listing}) case={label} adds={val}")
                _delete(adj, pre, cyc)
            continue

        leaf_cycles = []
        for cyc in cycles:
            branching = [w for w in cyc if len(adj[w]) >= 3]
            if len(branching) == 1:
                leaf_cycles.append((branching[0], cyc))
        if not leaf_cycles:
            raise RuntimeError(
                "cactus residual has no isolated or leaf cycle; this is a bug"
            )
        v, cyc = min(leaf_cycles)
        listing = ",".join(str(w) for w in cyc)

        path_vertices = tuple(w for w in cyc if w != v)
        sub_p, rel_p = induced_subgraph(g, sorted(path_vertices))
        inv_p = {new: old for old, new in rel_p.items()}
        cf_p, pl_p, _ = _path_places(
            sub_p, frozenset(rel_p[w] for w in path_vertices if w in pre)
        )
        sub_c, rel_c = induced_subgraph(g, sorted(cyc))
        inv_c = {new: old for old, new in rel_c.items()}
        cf_c, pl_c, label = _cycle_places(
            sub_c,
            frozenset(rel_c[w] for w in cyc if w in pre),
            tuple(rel_c[w] for w in cyc),
        )

        if v in pre:
            if not cf_c <= cf_p <= cf_c + 1:
                raise RuntimeError(
                    f"cost dichotomy violated at held leaf cycle ({listing}):"
                    f" path={cf_p} cycle={cf_c}; this is a bug"
                )
            case, clear_path = ("5.1", True) if cf_p == cf_c else ("5.2", False)
        else:
            if not cf_p <= cf_c <= cf_p + 1:
                raise RuntimeError(
                    f"cost dichotomy violated at leaf cycle ({listing}):"
                    f" path={cf_p} cycle={cf_c}; this is a bug"
                )
            case, clear_path = ("5.3", True) if cf_c == cf_p + 1 else ("5.4", False)

        if clear_path:
            places.extend(inv_p[x] for x in pl_p)
            trace.append(
                f"step{case} cycle=({listing}) extender={v} path={cf_p} cycle={cf_c}"
            )
            _delete(adj, pre, path_vertices)
        else:
            places.extend(inv_c[x] for x in pl_c)
            trace.append(
                f"step{case} cycle=({listing}) extender={v}"
                f" path={cf_p} cycle={cf_c} case={label}"
            )
            _delete(adj, pre, cyc)

    strategy = complete_with_slides(g, places, preoccupied=inst.preoccupied)
    certify(g, strategy, inst.preoccupied)
    return CactusPlan(
        additional_searchers=len(places), strategy=strategy, trace=tuple(trace)
    )
