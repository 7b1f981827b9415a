"""Constrained zero forcing and constrained fast-mixed search engines.

Both processes share the one-move discipline of the deduction game: a
colored vertex forces at most once, a searcher slides at most once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .deduction import FiringSequence, Layout, is_successful, run_deduction
from .graphs import Edge, Graph, edge_key


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
    """
    start = sorted(set(initial))
    for v in start:
        if not 0 <= v < g.n:
            raise ValueError(f"initial vertex {v} out of range for n={g.n}")
    adj = g.adjacency()
    colored = set(start)
    spent: set[int] = set()
    forces: list[tuple[int, int]] = []
    progress = True
    while progress:
        progress = False
        for v in start:
            if v in spent:
                continue
            uncolored = [w for w in adj[v] if w not in colored]
            if len(uncolored) == 1:
                colored.add(uncolored[0])
                spent.add(v)
                forces.append((v, uncolored[0]))
                progress = True
    return CzfState(frozenset(start), frozenset(colored), tuple(forces))


# ---------------------------------------------------------------------------
# Strategies for the sliding model.
# ---------------------------------------------------------------------------

PlaceAction = tuple[str, int]
SlideAction = tuple[str, int, int]


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

    def to_json(self) -> str:
        items = []
        for act in self.actions:
            if act[0] == "place":
                items.append({"place": act[1]})
            else:
                items.append({"slide": [act[1], act[2]]})
        return json.dumps(items)

    @staticmethod
    def from_json(text: str) -> "Strategy":
        try:
            items = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"strategy is not valid JSON: {exc}") from None
        if not isinstance(items, list):
            raise ValueError("strategy JSON must be a list of actions")
        actions: list[tuple] = []
        for i, item in enumerate(items):
            if not isinstance(item, dict) or len(item) != 1:
                raise ValueError(f"action {i}: expected a one-key object, got {item!r}")
            if "place" in item:
                actions.append(("place", int(item["place"])))
            elif "slide" in item:
                u, v = item["slide"]
                actions.append(("slide", int(u), int(v)))
            else:
                raise ValueError(f"action {i}: unknown action {item!r}")
        return Strategy(tuple(actions))

    @staticmethod
    def from_text(text: str) -> "Strategy":
        """Parse the little command form: "place 0; slide 0 1"."""
        actions: list[tuple] = []
        for i, chunk in enumerate(c.strip() for c in text.split(";")):
            if not chunk:
                continue
            parts = chunk.split()
            if parts[0] == "place" and len(parts) == 2:
                actions.append(("place", int(parts[1])))
            elif parts[0] == "slide" and len(parts) == 3:
                actions.append(("slide", int(parts[1]), int(parts[2])))
            else:
                raise ValueError(f"action {i}: cannot parse {chunk!r}")
        return Strategy(tuple(actions))


# ---------------------------------------------------------------------------
# Constrained fast-mixed search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CfmsState:
    """Result of running a sliding strategy.

    moved holds vertices whose current searcher has already slid.  An edge
    clears when both endpoints hold searchers or when a searcher slides
    along it; success means every edge cleared.
    """

    occupied: frozenset[int]
    moved: frozenset[int]
    cleared_edges: frozenset[Edge]
    ever_occupied: frozenset[int]
    success: bool


def _clear_by_occupation(g: Graph, occupied: set[int], cleared: set[Edge]) -> None:
    for e in g.edges:
        if e not in cleared and e[0] in occupied and e[1] in occupied:
            cleared.add(e)


def cfms_run(g: Graph, strategy: Strategy, preoccupied=frozenset()) -> CfmsState:
    """Run a sliding strategy and report what it cleared.

    Searchers go onto contaminated vertices only and slide at most once,
    along their unique contaminated incident edge.  Vertices listed in
    preoccupied start out holding a fresh searcher each.  Illegal actions
    raise StrategyError naming the zero-based action index.
    """
    pre = sorted(set(preoccupied))
    for v in pre:
        if not 0 <= v < g.n:
            raise ValueError(f"preoccupied vertex {v} out of range")
    adj = g.adjacency()
    occupied: set[int] = set(pre)
    moved: set[int] = set()
    ever: set[int] = set(pre)
    cleared: set[Edge] = set()
    _clear_by_occupation(g, occupied, cleared)

    def contaminated_at(v: int) -> list[int]:
        return [w for w in adj[v] if edge_key(v, w) not in cleared]

    for i, act in enumerate(strategy.actions):
        if act[0] == "place":
            v = act[1]
            if not 0 <= v < g.n:
                raise StrategyError(f"action {i}: place on vertex {v} out of range")
            if v in occupied:
                raise StrategyError(f"action {i}: place on occupied vertex {v}")
            if adj[v] and not contaminated_at(v):
                raise StrategyError(f"action {i}: place on cleared vertex {v}")
            occupied.add(v)
            ever.add(v)
        else:
            _, u, v = act
            if not (0 <= u < g.n and 0 <= v < g.n):
                raise StrategyError(f"action {i}: slide ({u}, {v}) out of range")
            if not g.has_edge(u, v):
                raise StrategyError(f"action {i}: slide along missing edge ({u}, {v})")
            if u not in occupied:
                raise StrategyError(f"action {i}: slide from unoccupied vertex {u}")
            if u in moved:
                raise StrategyError(f"action {i}: searcher at {u} has already slid")
            contam = contaminated_at(u)
            if contam != [v]:
                raise StrategyError(
                    f"action {i}: ({u}, {v}) is not the unique contaminated edge at {u}; "
                    f"contaminated neighbors of {u} are {contam}"
                )
            occupied.discard(u)
            cleared.add(edge_key(u, v))
            occupied.add(v)
            moved.add(v)
            ever.add(v)
        _clear_by_occupation(g, occupied, cleared)

    return CfmsState(
        occupied=frozenset(occupied),
        moved=frozenset(moved),
        cleared_edges=frozenset(cleared),
        ever_occupied=frozenset(ever),
        success=len(cleared) == g.m,
    )


def complete_with_slides(g: Graph, places, preoccupied=frozenset()) -> Strategy:
    """Extend placements with greedy slides until no legal slide remains.

    Repeatedly slides the lowest-index unslid searcher that has exactly one
    contaminated incident edge.  The reachable cleared set is the same for
    every maximal slide order, so this canonical order loses nothing.  The
    result deliberately gets re-run through certify wherever a value
    depends on it.
    """
    place_list = sorted(set(places))
    pre = set(preoccupied)
    if pre & set(place_list):
        raise ValueError("placement overlaps preoccupied vertices")
    adj = g.adjacency()
    occupied = set(pre) | set(place_list)
    moved: set[int] = set()
    cleared: set[Edge] = set()
    _clear_by_occupation(g, occupied, cleared)
    slides: list[tuple] = []
    while True:
        slide = None
        for u in sorted(occupied - moved):
            contam = [w for w in adj[u] if edge_key(u, w) not in cleared]
            if len(contam) == 1:
                slide = (u, contam[0])
                break
        if slide is None:
            break
        u, v = slide
        occupied.discard(u)
        cleared.add(edge_key(u, v))
        occupied.add(v)
        moved.add(v)
        slides.append(("slide", u, v))
        _clear_by_occupation(g, occupied, cleared)
    actions = tuple(("place", v) for v in place_list) + tuple(slides)
    return Strategy(actions)


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
    (which must color every vertex); RuntimeError unless it succeeds."""
    everything = frozenset(range(g.n))
    if isinstance(witness, Strategy):
        state = cfms_run(g, witness, preoccupied)
        kind, ok = "strategy", state.success and state.ever_occupied == everything
    elif isinstance(witness, Layout):
        kind, ok = "layout", is_successful(g, witness)
    else:
        kind, ok = "forcing-set", czf_run(g, witness).colored == everything
    if not ok:
        raise RuntimeError(f"{kind} witness failed to replay; this is a bug")
