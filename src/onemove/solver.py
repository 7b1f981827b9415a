"""The library entry point: route an input to a solver and certify its witness.

Each structured solver replays its own witness through engines.certify;
the exhaustive search does not, so solve certifies its forcing set.
Every returned witness has therefore been replayed exactly once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .cactus import CactusInstance, cactus_solve
from .engines import certify
from .exact import czf_exact
from .families import (
    CliqueConstruction,
    DismantlingOrdering,
    clique_construction_layout,
    clique_construction_value,
    dismantlable_value,
    dismantling_strategy,
    pendent_dismantle,
    tree_solve,
    unicyclic_solve,
)
from .graphs import Graph, classify

log = logging.getLogger(__name__)

METHODS = ("auto", "exact", "tree", "unicyclic", "cactus", "dismantle", "clique")


@dataclass(frozen=True)
class Solution:
    """A certified value: the witness is a Strategy, a Layout (clique
    method) or a tuple of forcing-set vertices (exact method); trace holds
    the cactus solver's rule applications."""

    value: int
    method: str
    witness: object
    trace: tuple[str, ...] = ()


def _route(g: Graph) -> tuple[str, DismantlingOrdering | None]:
    """The cheapest applicable method, with the ordering when it dismantles."""
    shape = classify(g)
    if shape.is_tree:
        return "tree", None
    if shape.is_unicyclic:
        return "unicyclic", None
    if shape.is_cactus:
        return "cactus", None
    ordering = pendent_dismantle(g)
    return ("exact", None) if ordering is None else ("dismantle", ordering)


def solve(
    g: Graph,
    preoccupied=frozenset(),
    method: str = "auto",
    *,
    construction: CliqueConstruction | None = None,
    force: bool = False,
) -> Solution:
    """Solve g by one of METHODS; with preoccupied vertices, the value is
    the number of additional searchers and only the cactus method applies.

    The clique method needs a construction, and force lets the exhaustive
    search pass its ceiling.  Inputs a method does not accept raise
    ValueError; a witness that fails to replay raises RuntimeError.
    """
    pre = frozenset(preoccupied)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if pre and method not in ("auto", "cactus"):
        raise ValueError("preoccupied inputs are solved by the cactus method only")
    ordering = None
    if method == "auto":
        method, ordering = ("cactus", None) if pre else _route(g)
        log.info("auto-detection chose the %s method", method)

    if method in ("tree", "unicyclic"):
        result = tree_solve(g) if method == "tree" else unicyclic_solve(g)
        return Solution(result.value, method, result.witness)
    if method == "cactus":
        plan = cactus_solve(CactusInstance(g, pre))
        return Solution(plan.additional_searchers, method, plan.strategy, plan.trace)
    if method == "dismantle":
        if ordering is None:
            ordering = pendent_dismantle(g)
        if ordering is None:
            raise ValueError("graph is not dismantlable by pendent edge deletions")
        value = dismantlable_value(g, ordering)
        return Solution(value, method, dismantling_strategy(g, ordering))
    if method == "clique":
        if construction is None:
            raise ValueError("the clique method needs a construction")
        value = clique_construction_value(g, construction)
        return Solution(value, method, clique_construction_layout(g, construction))
    result = czf_exact(g, force=force)
    witness = tuple(result.witness)
    certify(g, witness)
    return Solution(result.value, method, witness)
