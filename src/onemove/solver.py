"""The library entry point: route an input to a solver and certify its witness.

The solvers that solve routes to do not replay their witnesses; solve
passes every result through engines.certify once before returning it.
"""

from __future__ import annotations

import logging

from .cactus import CactusInstance, cactus_solve
from .engines import certify
from .exact import ParameterResult, czf_exact
from .families import (
    CliqueConstruction,
    DismantlingOrdering,
    clique_construction_layout,
    dismantling_strategy,
    pendent_dismantle,
    tree_solve,
    unicyclic_solve,
)
from .graphs import Graph, classify

log = logging.getLogger(__name__)

METHODS = ("auto", "exact", "tree", "unicyclic", "cactus", "dismantle", "clique")


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
) -> ParameterResult:
    """Solve g by one of METHODS; with preoccupied vertices, the value is
    the number of additional searchers and only the cactus method applies.

    The result names the method that ran.  Its witness is a Strategy, a
    Layout (clique method) or a list of forcing-set vertices (exact
    method); only the cactus method fills trace, with its rule
    applications.

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
    elif method == "cactus":
        result = cactus_solve(CactusInstance(g, pre))
    elif method == "dismantle":
        if ordering is None:
            ordering = pendent_dismantle(g)
        if ordering is None:
            raise ValueError("graph is not dismantlable by pendent edge deletions")
        result = ParameterResult(g.n - len(ordering), dismantling_strategy(g, ordering), method)
    elif method == "clique":
        if construction is None:
            raise ValueError("the clique method needs a construction")
        layout = clique_construction_layout(g, construction)
        result = ParameterResult(layout.total(), layout, method)
    else:
        result = czf_exact(g, force=force)
    certify(g, result.witness, pre)
    return result
