"""The deduction game: searcher layouts, firing, and its two robustness laws.

A vertex holding at least as many unmoved searchers as it has unprotected
neighbors may fire, sending one searcher to each of them.  Searchers move
at most once.  A layout is successful when firing can protect every vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import Graph

POLICIES = ("all-fireable", "single-fire-canonical", "random", "explicit")


@dataclass(frozen=True)
class Layout:
    """Searcher placement: vertex -> number of searchers (all positive)."""

    counts: dict[int, int]

    def __post_init__(self) -> None:
        for v, c in self.counts.items():
            if c <= 0:
                raise ValueError(f"layout count for vertex {v} must be positive")
        object.__setattr__(self, "counts", dict(self.counts))

    def support(self) -> frozenset[int]:
        return frozenset(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def is_standard(self) -> bool:
        """At most one searcher per vertex."""
        return all(c == 1 for c in self.counts.values())

    @staticmethod
    def standard(vertices) -> "Layout":
        return Layout({v: 1 for v in vertices})


# One stage of simultaneous firing: firing vertex -> its targets, ascending.
FiringStage = dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class FiringSequence:
    """Ordered stages of fired moves.  No vertex fires in two stages."""

    stages: tuple[FiringStage, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for stage in self.stages:
            for v in stage:
                if v in seen:
                    raise ValueError(f"vertex {v} fires in two stages")
            seen.update(stage)

    def stage_sets(self) -> list[list[int]]:
        return [sorted(stage) for stage in self.stages]


@dataclass
class DeductionState:
    """Snapshot of a deduction game after some (possibly empty) firing."""

    protected: frozenset[int]
    counts: dict[int, int]
    unmoved: dict[int, int]
    history: FiringSequence

    def terminal_layout(self) -> Layout:
        return Layout({v: c for v, c in self.counts.items() if c > 0})


def _check_layout(g: Graph, layout: Layout) -> None:
    for v in layout.counts:
        if not 0 <= v < g.n:
            raise ValueError(f"layout vertex {v} out of range for n={g.n}")


def fireable(g: Graph, protected: set[int], unmoved: dict[int, int]) -> list[int]:
    """Vertices that can fire now, ascending.

    A vertex with no unprotected neighbors never fires (nothing to deduce),
    so firing sequences contain no vacuous moves.
    """
    return _fireable(g.adjacency(), protected, unmoved)


def _fireable(adj: list[list[int]], protected: set[int], unmoved: dict[int, int]) -> list[int]:
    out = []
    for v, stock in sorted(unmoved.items()):
        if stock <= 0:
            continue
        need = sum(1 for w in adj[v] if w not in protected)
        if 1 <= need <= stock:
            out.append(v)
    return out


def _fire(
    stage: FiringStage, protected: set[int], counts: dict[int, int], unmoved: dict[int, int]
) -> None:
    """Send one searcher from each firing vertex to each of its targets."""
    for v, targets in stage.items():
        unmoved[v] -= len(targets)
        counts[v] -= len(targets)
        for w in targets:
            counts[w] = counts.get(w, 0) + 1
            protected.add(w)


def run_deduction(
    g: Graph,
    layout: Layout,
    policy: str = "all-fireable",
    *,
    stages=None,
    seed: int | None = None,
) -> DeductionState:
    """Play a deduction game to completion under the given firing policy.

    all-fireable fires every eligible vertex each stage;
    single-fire-canonical fires the lowest-index eligible vertex; random
    fires a seeded nonempty sample.  explicit replays caller-supplied
    stages (iterables of vertices) and raises ValueError naming the stage
    and vertex of the first illegal move.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "explicit" and stages is None:
        raise ValueError("explicit policy needs stages")
    if policy != "explicit" and stages is not None:
        raise ValueError(f"stages given but policy is {policy!r}")
    _check_layout(g, layout)

    adj = g.adjacency()
    protected: set[int] = set(layout.counts)
    counts = dict(layout.counts)
    unmoved = dict(layout.counts)
    history: list[FiringStage] = []
    rng = random.Random(seed) if policy == "random" else None

    def fire_stage(chosen: list[int], label: str) -> None:
        stage: FiringStage = {}
        for v in chosen:
            targets = tuple(w for w in adj[v] if w not in protected)
            if not targets:
                raise ValueError(f"{label}: vertex {v} cannot fire: no unprotected neighbors")
            if unmoved.get(v, 0) < len(targets):
                raise ValueError(
                    f"{label}: vertex {v} cannot fire: needs {len(targets)} unmoved "
                    f"searchers, has {unmoved.get(v, 0)}"
                )
            stage[v] = targets
        _fire(stage, protected, counts, unmoved)
        history.append(stage)

    if policy == "explicit":
        for i, raw in enumerate(stages):
            members = list(raw)
            chosen = sorted(set(members))
            if len(chosen) != len(members):
                raise ValueError(f"stage {i}: repeated vertex")
            for v in chosen:
                if not 0 <= v < g.n:
                    raise ValueError(f"stage {i}: vertex {v} out of range")
            if not chosen:
                raise ValueError(f"stage {i}: empty stage")
            fire_stage(chosen, f"stage {i}")
    else:
        while True:
            frs = _fireable(adj, protected, unmoved)
            if not frs:
                break
            if policy == "all-fireable":
                chosen = frs
            elif policy == "single-fire-canonical":
                chosen = frs[:1]
            else:
                chosen = sorted(rng.sample(frs, rng.randint(1, len(frs))))
            fire_stage(chosen, "stage")

    return DeductionState(
        protected=frozenset(protected),
        counts=counts,
        unmoved=unmoved,
        history=FiringSequence(tuple(history)),
    )


def is_successful(g: Graph, layout: Layout) -> bool:
    """Whether the layout can protect every vertex.

    Any maximal game protects the same set, so one all-fireable run decides.
    """
    return len(run_deduction(g, layout).protected) == g.n


def check_order_invariance(g: Graph, layout: Layout, trials: int = 4, seed: int = 0) -> bool:
    """Confirm that the protected closure does not depend on firing order.

    Runs the all-fireable and single-fire games plus `trials` seeded random
    games and compares the protected sets.  trials must be at least 2.
    """
    if trials < 2:
        raise ValueError("need at least 2 random trials")
    baseline = run_deduction(g, layout).protected
    if run_deduction(g, layout, "single-fire-canonical").protected != baseline:
        return False
    for t in range(trials):
        if run_deduction(g, layout, "random", seed=seed + t).protected != baseline:
            return False
    return True


def _replay_reversed(g: Graph, start: Layout, stage_sets: list[list[int]]) -> bool:
    """Replay reversed stages leniently: members with nothing to fire at are
    skipped, but a member that should fire and cannot fails the replay."""
    adj = g.adjacency()
    protected: set[int] = set(start.counts)
    unmoved = dict(start.counts)
    counts = dict(start.counts)
    for stage in stage_sets:
        fires: dict[int, tuple[int, ...]] = {}
        for v in stage:
            targets = tuple(w for w in adj[v] if w not in protected)
            if not targets:
                continue
            if unmoved.get(v, 0) < len(targets):
                return False
            fires[v] = targets
        _fire(fires, protected, counts, unmoved)
    return protected == set(range(g.n))


def check_terminal_success(g: Graph, layout: Layout) -> bool:
    """Verify that where the searchers end up is itself a successful layout.

    Plays the layout out, takes the terminal layout, checks it succeeds
    under free play, and certifies it by replaying the firing sequence in
    reverse (each stage's targets fire back).  Raises ValueError if the
    input layout is not successful in the first place.
    """
    base = run_deduction(g, layout)
    if len(base.protected) != g.n:
        raise ValueError("layout is not successful; terminal success does not apply")
    terminal = base.terminal_layout()
    if len(run_deduction(g, terminal).protected) != g.n:
        return False
    reversed_stages = [
        sorted({w for targets in stage.values() for w in targets})
        for stage in reversed(base.history.stages)
    ]
    return _replay_reversed(g, terminal, reversed_stages)
