"""Cactus solver for the variant where some vertices start occupied.

Degree-1 vertices fall to the four local rules of the one leaf peel,
graphs.peel_leaves, keyed to which of the leaf and its neighbor already
hold a searcher; it runs again on the residual after each cycle
deletion.  Once no degree-1 vertex is left, a cactus forest is a
collection of cycles glued at cut vertices and always exposes a cycle
that is isolated or meets the rest of the graph in a single branching
vertex; those fall to a case analysis that compares the cost of the
whole cycle with the cost of the path avoiding the branching vertex.
Every path piece, that path or a cycle less an edge between two held
vertices, is handed over as its vertex order and dissolved by the same
leaf peel.
Solvers here compute placements only: slides are reconstructed greedily,
and the finished strategy is left for the caller to replay (solver.solve
certifies it once).  graphs.parse_instance reads the instance format.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .engines import complete_with_slides
from .exact import ParameterResult
from .graphs import (
    Graph,
    alternating_places,
    classify,
    delete_vertices,
    edge_key,
    parse_instance,
    peel_leaves,
    write_edge_list,
)

__all__ = [
    "CactusInstance",
    "parse_cactus_instance",
    "write_cactus_instance",
    "cactus_solve",
]


@dataclass(frozen=True)
class CactusInstance:
    """A cactus forest together with the vertices that start occupied.

    Validating the instance classifies its graph, and the graph keeps
    that shape, so cactus_solve reads the cycles without classifying
    again.
    """

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


def parse_cactus_instance(text: str) -> CactusInstance:
    """Parse the instance format; no preoccupied line, no occupied vertex."""
    g, pre = parse_instance(text)
    return CactusInstance(g, pre or frozenset())


def write_cactus_instance(inst: CactusInstance) -> str:
    """Serialize; parse_cactus_instance inverts this."""
    pre = " ".join(str(v) for v in sorted(inst.preoccupied))
    return write_edge_list(inst.graph) + ("preoccupied " + pre).rstrip() + "\n"


def _resolve_leaves(
    adj: dict[int, set[int]], pre: set[int], places: list[int], trace: list[str], dirty: set[int]
) -> None:
    """Peel the residual (graphs.peel_leaves), then resolve the isolated
    vertices left, which are all in dirty: place on each unoccupied one."""
    for rule, v, u in peel_leaves(adj, pre, dirty):
        trace.append(f"step{rule} v={v} u={u}")
        if rule == 1:
            places.append(v)
    for v in sorted(x for x in dirty if x in adj and not adj[x]):
        if v in pre:
            trace.append(f"isolated v={v} preoccupied")
        else:
            places.append(v)
            trace.append(f"isolated v={v} placed")
        delete_vertices(adj, pre, (v,))


def _path_places(order: tuple[int, ...], pre) -> list[int]:
    """Placements that dissolve the path through order, in the caller's
    labels: the leaf peel plus the isolated sweep.

    pre may hold vertices off the path and is only read.  Labels act
    only through their order, which breaks ties between leaves.
    """
    adj: dict[int, set[int]] = {w: set() for w in order}
    for a, b in zip(order, order[1:]):
        adj[a].add(b)
        adj[b].add(a)
    places: list[int] = []
    _resolve_leaves(adj, {v for v in order if v in pre}, places, [], set(order))
    if adj:
        raise RuntimeError("leaf rules did not dissolve the path; this is a bug")
    return places


def _ring_scan(forced: list[bool], spare: int, wrap: bool) -> tuple[int, tuple] | None:
    """Cheapest clearing superset of the forced positions on a ring, for
    one use of position 0's slide; None when no superset clears.

    The occupied positions clear the ring iff every unoccupied run has
    length at most 2, each length-2 run receives a slide from both
    flanking searchers and each length-1 run from at least one, no
    searcher slides twice, and, unless the ring is fully occupied, some
    two occupied positions are adjacent (an alternating layout
    deadlocks: nobody's first slide is ever legal).  Position 0 must be
    forced.  spare = 1 keeps its slide for the run on its right; wrap
    lets it slide into the run that closes the ring; with neither it is
    pinned: it contributes occupation but may not slide.

    Returns (cost, choices): cost counts the occupied positions that are
    not forced, and choices is a linked list (occupied, previous node)
    from the last position back to position 0.  One pass over the ring
    drives a state machine over (current run info, spare slide capacity,
    whether two adjacent occupied positions exist yet) that keeps a
    cheapest choice per state, so a step costs O(1).
    """
    ring = len(forced)
    if not forced[0]:
        raise ValueError("position 0 must be forced")
    # States: ("O", cap, len2) inside an occupied run, where cap is the
    # newest searcher's spare slide and len2 tracks run length >= 2;
    # ("U", a, leftcap) inside an unoccupied run of length a backed by
    # leftcap spare capacity on its left flank.  big records whether
    # any occupied run reached length 2.
    frontier: dict[tuple, tuple[int, tuple]] = {(("O", spare, False), False): (0, (True, None))}
    for p in range(1, ring):
        nxt: dict[tuple, tuple[int, tuple]] = {}

        def push(state: tuple, cost: int, chosen: tuple) -> None:
            cur = nxt.get(state)
            if cur is None or cost < cur[0]:
                nxt[state] = (cost, chosen)

        for ((kind, x, y), big), (cost, chosen) in frontier.items():
            on, off = (True, chosen), (False, chosen)
            for occ in (True, False):
                if forced[p] and not occ:
                    continue
                add = 0 if forced[p] else int(occ)
                if kind == "O":
                    if occ:
                        push((("O", 1, True), True), cost + add, on)
                    else:
                        push((("U", 1, x), big), cost, off)
                else:
                    if occ:
                        if x == 1:
                            if y:
                                push((("O", 1, False), big), cost + add, on)
                            push((("O", 0, False), big), cost + add, on)
                        else:
                            if y:
                                push((("O", 0, False), big), cost + add, on)
                    elif x == 1:
                        push((("U", 2, y), big), cost, off)
        frontier = nxt
    best: tuple[int, tuple] | None = None
    for ((kind, x, y), big), (cost, chosen) in frontier.items():
        if kind == "O":
            feasible = True
        elif x == 1:
            feasible = big and (y == 1 or wrap)
        else:
            feasible = big and y == 1 and wrap
        if feasible and (best is None or cost < best[0]):
            best = (cost, chosen)
    return best


def _ring_minimum_occupation(forced: list[bool]) -> list[int]:
    """Smallest clearing superset of the forced positions on a ring.

    Position 0 must be forced.  Returns all occupied positions of the
    cheaper of the two scans in which position 0 may slide: keeping its
    slide for the run on its right, or spending it on the run that
    closes the ring; the first wins ties.
    """
    scans = [s for s in (_ring_scan(forced, 1, False), _ring_scan(forced, 0, True)) if s is not None]
    if not scans:
        raise RuntimeError("ring occupation search failed; this is a bug")
    node = min(scans, key=lambda s: s[0])[1]
    flags: list[bool] = []
    while node is not None:
        occ, node = node
        flags.append(occ)
    return [p for p, occ in enumerate(reversed(flags)) if occ]


def _cycle_places(pre, rotation: tuple[int, ...]) -> tuple[list[int], str]:
    """Fewest extra placements that clear a single cycle, with the case label.

    rotation lists the cycle in cyclic order in the caller's labels; pre
    may hold vertices off the cycle and is only read.  No occupied
    vertex: a fixed pattern of ceil(n/2) placements.  Two occupied
    vertices adjacent: their shared edge clears on its own, so the path
    left when the least such edge is dropped decides.  Otherwise a ring
    scan finds the cheapest placement set whose occupied runs satisfy the
    slide-capacity rules; the label reports what the chosen optimum does
    at the lowest occupied vertex u: its searcher rests (a), it must
    slide (b), or a new searcher lands next to it (c).  Label a is the
    pinned ring scan's verdict: the chosen set, with u unable to slide,
    costs nothing more.
    """
    held = [w for w in rotation if w in pre]
    if not held:
        return alternating_places(rotation), "none"
    after = rotation[1:] + rotation[:1]
    adjacent = [
        (edge_key(a, b), i) for i, (a, b) in enumerate(zip(rotation, after)) if a in pre and b in pre
    ]
    if adjacent:
        i = min(adjacent)[1] + 1
        return _path_places(rotation[i:] + rotation[:i], pre), "adjacent"
    at = rotation.index(min(held))
    turned = rotation[at:] + rotation[:at]
    chosen = set(_ring_minimum_occupation([v in pre for v in turned]))
    places = sorted(turned[p] for p in chosen if turned[p] not in pre)
    pinned = _ring_scan([p in chosen for p in range(len(turned))], 0, False)
    if pinned is not None and pinned[0] == 0:
        label = "a"
    elif turned[1] in places or turned[-1] in places:
        label = "c"
    else:
        label = "b"
    return places, label


def cactus_solve(inst: CactusInstance) -> ParameterResult:
    """Fewest extra searchers for a cactus forest, with strategy and trace.

    The value counts searchers beyond the pre-occupying ones, the witness
    is a full strategy (not replayed here) and trace lists the rule
    applications that led there.

    Alternates the degree-1 rules with cycle elimination.  An isolated
    cycle is solved outright.  A leaf cycle C with branching vertex v is
    compared against the path P that omits v: their costs differ by at
    most one, and which side of the dichotomy holds decides whether P is
    cleared now (keeping v for the rest of the graph) or all of C goes.
    Cases 5.1/5.2 apply when v starts occupied, 5.3/5.4 when it does not.
    Each round costs time in what it deletes: only vertices whose degree
    fell are looked at again, and each cycle piece is solved in the
    graph's own labels.
    """
    g = inst.graph
    rows = g.adjacency()
    adj = {v: set(ws) for v, ws in enumerate(rows)}
    pre = set(inst.preoccupied)
    places: list[int] = []
    trace: list[str] = []
    # The residual is always an induced subgraph of g, so its cycles are
    # the cycles of g that still have all their vertices, and once no
    # leaf is left every live vertex has degree 2 or more.  Degrees only
    # fall, so a cycle's count of degree-3+ vertices (the vertices in
    # big) only falls: a live cycle whose count is 0 is isolated, one
    # whose count is 1 is a leaf cycle at its one big vertex.
    cycles = classify(g).cycles
    through: dict[int, list[int]] = {}
    for i, cyc in enumerate(cycles):
        for w in cyc:
            through.setdefault(w, []).append(i)
    big = {w for w in through if len(rows[w]) >= 3}
    count = [sum(w in big for w in cyc) for cyc in cycles]
    isolated: list[tuple[int, ...]] = []
    leaves: list[tuple[int, tuple[int, ...], int]] = []

    def enqueue(i: int) -> None:
        if count[i] == 0:
            isolated.append(cycles[i])
        elif count[i] == 1:
            cyc = cycles[i]
            heapq.heappush(leaves, (next(w for w in cyc if w in big), cyc, i))

    def alive(cyc: tuple[int, ...]) -> bool:
        return all(w in adj for w in cyc)

    for i in range(len(cycles)):
        enqueue(i)
    dirty = set(adj)  # vertices whose degree may have fallen
    while adj:
        _resolve_leaves(adj, pre, places, trace, dirty)
        if not adj:
            break
        for x in dirty:
            if x in big and len(adj.get(x, ())) < 3:
                big.discard(x)
                for i in through[x]:
                    count[i] -= 1
                    enqueue(i)
        dirty.clear()

        ready = sorted(cyc for cyc in isolated if alive(cyc))
        isolated.clear()
        if ready:
            for cyc in ready:
                pl, label = _cycle_places(pre, cyc)
                places.extend(pl)
                listing = ",".join(str(w) for w in cyc)
                trace.append(f"isolated-cycle ({listing}) case={label} adds={len(pl)}")
                delete_vertices(adj, pre, cyc)
            continue

        while leaves and (count[leaves[0][2]] != 1 or not alive(leaves[0][1])):
            heapq.heappop(leaves)
        if not leaves:
            raise RuntimeError(
                "cactus residual has no isolated or leaf cycle; this is a bug"
            )
        v, cyc, _ = heapq.heappop(leaves)
        listing = ",".join(str(w) for w in cyc)

        at = cyc.index(v)
        pl_p = _path_places(cyc[at + 1 :] + cyc[:at], pre)
        pl_c, label = _cycle_places(pre, cyc)
        cf_p, cf_c = len(pl_p), len(pl_c)

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
            places.extend(pl_p)
            trace.append(
                f"step{case} cycle=({listing}) extender={v} path={cf_p} cycle={cf_c}"
            )
            dirty |= delete_vertices(adj, pre, (w for w in cyc if w != v))
        else:
            places.extend(pl_c)
            trace.append(
                f"step{case} cycle=({listing}) extender={v}"
                f" path={cf_p} cycle={cf_c} case={label}"
            )
            dirty |= delete_vertices(adj, pre, cyc)

    strategy = complete_with_slides(g, places, preoccupied=inst.preoccupied)
    return ParameterResult(len(places), strategy, "cactus", tuple(trace))

