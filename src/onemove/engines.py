"""Constrained zero forcing and constrained fast-mixed search engines.

Both processes share the one-move discipline of the deduction game: a
colored vertex forces at most once, a searcher slides at most once.
A sliding run is one object, Clearing: cfms_run returns it, and
complete_with_slides and the CLI's simulate drive it action by action;
each action costs time in the degree of the vertex that gains a searcher.
It keeps no edge set: an edge is cleared exactly when both of its ends
have held a searcher, since a searcher leaves a vertex only along its
last contaminated edge (Clearing gives the proof).  Success is O(1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .deduction import FiringSequence, Layout, is_successful, run_deduction
from .graphs import Edge, Graph


# ---------------------------------------------------------------------------
# Constrained zero forcing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CzfState:
    """Result of playing out a forcing set.

    forces lists the applied forces as (forcer, target) pairs in scan
    order; only initially colored vertices appear as forcers, each once.
    """

    initial: frozenset[int]
    colored: frozenset[int]
    forces: tuple[tuple[int, int], ...]

    def succeeded(self, g: Graph) -> bool:
        return len(self.colored) == g.n


def czf_run(g: Graph, initial) -> CzfState:
    """Play constrained zero forcing from an initial colored set.

    A colored vertex whose neighborhood contains exactly one uncolored
    vertex forces it; only the initial vertices may force, and each forces
    at most once.  Scanning is by ascending vertex index to a fixpoint,
    which by order invariance does not affect the final colored set.

    Each initial vertex keeps its count of uncolored neighbors, so a scan
    visits only the vertices whose count has fallen to 1: a vertex that
    reaches 1 after its place in the current scan waits for the next one.
    A vertex that has forced has a count of 0 and never forces again.
    """
    start = sorted(set(initial))
    for v in start:
        if not 0 <= v < g.n:
            raise ValueError(f"initial vertex {v} out of range for n={g.n}")
    adj = g.adjacency()
    colored = set(start)
    need = {v: sum(1 for w in adj[v] if w not in colored) for v in start}
    forces: list[tuple[int, int]] = []
    scan = [v for v in start if need[v] == 1]  # sorted, so already a heap
    later: list[int] = []
    while scan:
        v = heapq.heappop(scan)
        if need[v] == 1:
            w = next(x for x in adj[v] if x not in colored)
            colored.add(w)
            forces.append((v, w))
            for x in adj[w]:
                if x in need:
                    need[x] -= 1
                    if need[x] == 1 and x > v:
                        heapq.heappush(scan, x)
                    elif need[x] == 1:
                        later.append(x)
        if not scan:
            scan, later = later, []
            heapq.heapify(scan)
    return CzfState(frozenset(start), frozenset(colored), tuple(forces))


# ---------------------------------------------------------------------------
# Strategies for the sliding model.
# ---------------------------------------------------------------------------

class StrategyError(ValueError):
    """An illegal action in a sliding strategy; the message cites the
    zero-based action index."""


@dataclass(frozen=True)
class Strategy:
    """A sequence of place and slide actions.

    Actions are ("place", v) and ("slide", u, v) tuples.  The normalized
    form lists every placement before any slide; placements can always be
    moved earlier because contamination only shrinks over time.
    """

    actions: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for i, act in enumerate(self.actions):
            if len(act) == 2 and act[0] == "place":
                continue
            if len(act) == 3 and act[0] == "slide":
                continue
            raise ValueError(f"action {i}: expected ('place', v) or ('slide', u, v), got {act!r}")

    def places(self) -> list[int]:
        return [a[1] for a in self.actions if a[0] == "place"]

    def slides(self) -> list[tuple[int, int]]:
        return [(a[1], a[2]) for a in self.actions if a[0] == "slide"]

    def searcher_count(self) -> int:
        return len(self.places())

    def is_normalized(self) -> bool:
        seen_slide = False
        for act in self.actions:
            if act[0] == "slide":
                seen_slide = True
            elif seen_slide:
                return False
        return True

    def normalize(self) -> "Strategy":
        places = [a for a in self.actions if a[0] == "place"]
        slides = [a for a in self.actions if a[0] == "slide"]
        return Strategy(tuple(places) + tuple(slides))

    @staticmethod
    def from_text(text: str) -> "Strategy":
        """Parse the little command form: "place 0; slide 0 1".

        Empty chunks are skipped, so errors number actions as the replay
        does and name the token that is not a vertex index.
        """
        actions: list[tuple] = []
        for chunk in (c.strip() for c in text.split(";")):
            if not chunk:
                continue
            i, (verb, *ends) = len(actions), chunk.split()
            if (verb, len(ends)) not in (("place", 1), ("slide", 2)):
                raise ValueError(f"action {i}: cannot parse {chunk!r}")
            vertices = []
            for tok in ends:
                try:
                    vertices.append(int(tok))
                except ValueError:
                    raise ValueError(f"action {i}: {tok!r} in {chunk!r} is not a vertex index") from None
            actions.append((verb, *vertices))
        return Strategy(tuple(actions))


# ---------------------------------------------------------------------------
# Constrained fast-mixed search.
# ---------------------------------------------------------------------------


class Clearing:
    """A sliding run: the sliding model's clearing rule, applied one
    action at a time.

    Invariant: an edge is cleared exactly when both of its ends have held
    a searcher.  Proof: a searcher leaves a vertex only along its last
    contaminated edge, so no action reaches a vacated vertex again.  If a
    is occupied before b, a can leave only across ab, so it still holds
    its searcher when b gains one, and ab clears then.  So a run keeps
    status[v]: 0 never held a searcher, 1 holds one that has not slid, 2
    holds one that slid there, 3 vacated; contaminated[v], the uncleared
    edges at v; and the counts visited and cleared.  place, slide and
    apply return the held neighbors of the vertex that gained a searcher,
    whose edges to it the action cleared, or raise StrategyError.  The
    sets occupied, moved, ever_occupied and cleared_edges are built from
    status when read.
    """

    def __init__(self, g: Graph, preoccupied=frozenset()) -> None:
        self.g = g
        self.adj = g.adjacency()
        self.contaminated = [len(row) for row in self.adj]
        self.status = bytearray(g.n)
        self.visited = self.cleared = 0
        for v in sorted(set(preoccupied)):
            if not 0 <= v < g.n:
                raise ValueError(f"preoccupied vertex {v} out of range")
            self._occupy(v, 1)

    def _occupy(self, v: int, mark: int) -> list[int]:
        """Put a searcher on v as status mark; returns the held neighbors, whose edges to v clear."""
        status, contaminated = self.status, self.contaminated
        status[v] = mark
        fresh = []
        for w in self.adj[v]:  # a loop, not a comprehension: faster at small degrees
            if status[w]:
                fresh.append(w)
                contaminated[w] -= 1
        contaminated[v] -= len(fresh)
        self.visited += 1
        self.cleared += len(fresh)
        return fresh

    def place(self, v: int, i: int) -> list[int]:
        """Action i puts a searcher on v; returns v's held neighbors."""
        if not 0 <= v < self.g.n:
            raise StrategyError(f"action {i}: place on vertex {v} out of range")
        if 0 < self.status[v] < 3:
            raise StrategyError(f"action {i}: place on occupied vertex {v}")
        if self.adj[v] and not self.contaminated[v]:
            raise StrategyError(f"action {i}: place on cleared vertex {v}")
        return self._occupy(v, 1)

    def slide(self, u: int, v: int, i: int) -> list[int]:
        """Action i slides the searcher at u to v; returns v's held neighbors, u among them."""
        status = self.status
        if not (0 <= u < self.g.n and 0 <= v < self.g.n):
            raise StrategyError(f"action {i}: slide ({u}, {v}) out of range")
        if u == v or not self.g.has_edge(u, v):
            raise StrategyError(f"action {i}: slide along missing edge ({u}, {v})")
        if not 0 < status[u] < 3:
            raise StrategyError(f"action {i}: slide from unoccupied vertex {u}")
        if status[u] == 2:
            raise StrategyError(f"action {i}: searcher at {u} has already slid")
        if self.contaminated[u] != 1 or status[v]:  # u holds, so uv is cleared iff v has held
            raise StrategyError(
                f"action {i}: ({u}, {v}) is not the unique contaminated edge at {u}; "
                f"contaminated neighbors of {u} are {[w for w in self.adj[u] if not status[w]]}"
            )
        fresh = self._occupy(v, 2)  # u still holds its searcher, so (u, v) clears too
        status[u] = 3
        return fresh

    def apply(self, act: tuple, i: int) -> list[int]:
        """Action i of a Strategy; returns the held neighbors of the vertex that gained a searcher."""
        return self.place(act[1], i) if act[0] == "place" else self.slide(act[1], act[2], i)

    @property
    def occupied(self) -> frozenset[int]:
        return frozenset(v for v, mark in enumerate(self.status) if 0 < mark < 3)

    @property
    def moved(self) -> frozenset[int]:
        return frozenset(v for v, mark in enumerate(self.status) if mark == 2)

    @property
    def ever_occupied(self) -> frozenset[int]:
        return frozenset(v for v, mark in enumerate(self.status) if mark)

    @property
    def cleared_edges(self) -> frozenset[Edge]:
        status = self.status
        return frozenset((a, b) for a, b in self.g.edges if status[a] and status[b])

    def succeeded(self, g: Graph) -> bool:
        """Every edge cleared and every vertex held a searcher at some point."""
        return self.cleared == g.m and self.visited == g.n


def cfms_run(g: Graph, strategy: Strategy, preoccupied=frozenset()) -> Clearing:
    """Run a sliding strategy and return the finished run.

    Searchers go onto contaminated vertices only and slide at most once,
    along their unique contaminated incident edge.  Vertices listed in
    preoccupied start out holding a fresh searcher each.  Illegal actions
    raise StrategyError naming the zero-based action index.
    """
    run = Clearing(g, preoccupied)
    for i, act in enumerate(strategy.actions):
        if act[0] == "place":
            run.place(act[1], i)
        else:
            run.slide(act[1], act[2], i)
    return run


def complete_with_slides(g: Graph, places, preoccupied=frozenset()) -> Strategy:
    """Extend placements with greedy slides until no legal slide remains.

    Repeatedly slides the lowest-index unslid searcher that has exactly one
    contaminated incident edge.  The reachable cleared set is the same for
    every maximal slide order, so this canonical order loses nothing.  The
    result is not replayed here: whoever reports it passes it to certify.
    """
    place_list = sorted(set(places))
    if set(preoccupied) & set(place_list):
        raise ValueError("placement overlaps preoccupied vertices")
    run = Clearing(g, preoccupied)
    for i, v in enumerate(place_list):
        run.place(v, i)
    actions: list[tuple] = [("place", v) for v in place_list]
    status, contaminated, adj = run.status, run.contaminated, run.adj
    # A searcher is ready (status 1, one contaminated edge) only once an edge at
    # it clears: the heap gets it then, and skips what has stopped being ready.
    heap = [u for u in range(g.n) if status[u] == 1 and contaminated[u] == 1]
    while heap:
        u = heapq.heappop(heap)
        if status[u] != 1 or contaminated[u] != 1:
            continue
        for v in adj[u]:
            if not status[v]:  # u's one contaminated edge leads to its one never-held neighbor
                break
        for w in run.slide(u, v, len(actions)):
            if status[w] == 1 and contaminated[w] == 1:
                heapq.heappush(heap, w)
        actions.append(("slide", u, v))
    return Strategy(tuple(actions))


def deduction_to_cfms(g: Graph, layout: Layout, sequence: FiringSequence | None = None) -> Strategy:
    """Translate a standard deduction layout and firing sequence into a
    sliding strategy.

    Places one searcher per layout vertex, then walks the firing sequence
    (all-fireable play if none is given) emitting one slide per fired move,
    stages in order and ties by ascending firing vertex.  When two vertices
    of one stage fire into a shared target, only the first move becomes a
    slide: the second searcher's edge is already cleared by double
    occupation, so that searcher simply stays put.
    """
    if not layout.is_standard():
        raise ValueError("only standard layouts translate move-for-move")
    if sequence is None:
        sequence = run_deduction(g, layout).history
    else:
        replay = run_deduction(g, layout, "explicit", stages=sequence.stage_sets())
        if replay.history.stages != sequence.stages:
            raise ValueError("firing sequence does not match play from this layout")
    actions: list[tuple] = [("place", v) for v in sorted(layout.counts)]
    covered = set(layout.counts)
    for stage in sequence.stages:
        for v in sorted(stage):
            targets = stage[v]
            if len(targets) != 1:
                raise RuntimeError("a standard layout fired several searchers; this is a bug")
            w = targets[0]
            if w in covered:
                continue
            covered.add(w)
            actions.append(("slide", v, w))
    return Strategy(tuple(actions))


# ---------------------------------------------------------------------------
# Witness replay.
# ---------------------------------------------------------------------------


def certify(g: Graph, witness, preoccupied=frozenset()) -> None:
    """Replay a Strategy (which must clear every edge and visit every
    vertex), a Layout (which must win the deduction game) or a forcing set
    (which must color every vertex); RuntimeError unless it succeeds.
    solver.solve calls it once per result; the solvers it routes to never
    do."""
    if isinstance(witness, Strategy):
        kind, ok = "strategy", cfms_run(g, witness, preoccupied).succeeded(g)
    elif isinstance(witness, Layout):
        kind, ok = "layout", is_successful(g, witness)
    else:
        kind, ok = "forcing-set", czf_run(g, witness).succeeded(g)
    if not ok:
        raise RuntimeError(f"{kind} witness failed to replay; this is a bug")
