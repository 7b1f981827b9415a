"""The library entry point: route an input to a solver and certify its witness.

The solvers that solve routes to do not replay their witnesses; solve
passes every result through engines.certify once before returning it.
verify adds an independent exhaustive oracle, and Report owns the JSON
form that the CLI's solve and verify print.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .cactus import CactusInstance, cactus_solve
from .deduction import Layout
from .engines import Strategy, certify
from .exact import ParameterResult, cfms_exact, czf_exact, d_exact
from .families import (
    CliqueConstruction,
    DismantlingOrdering,
    clique_construction_layout,
    pairs_strategy,
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
        result = ParameterResult(g.n - len(ordering), pairs_strategy(g, ordering.pairs), method)
    elif method == "clique":
        if construction is None:
            raise ValueError("the clique method needs a construction")
        layout = clique_construction_layout(g, construction)
        result = ParameterResult(layout.total(), layout, method)
    else:
        result = czf_exact(g, force=force)
    certify(g, result.witness, pre)
    for line in result.trace:
        log.info("cactus rule: %s", line)
    return result


@dataclass(frozen=True)
class Report:
    """A certified result, its preoccupied vertices and verify's oracle (name, value)."""

    result: ParameterResult
    preoccupied: frozenset[int] = frozenset()
    oracle: tuple[str, int] | None = None

    @property
    def agree(self) -> bool | None:
        """Whether the oracle matches the result; None without an oracle."""
        return None if self.oracle is None else self.result.value == self.oracle[1]

    def to_json(self) -> dict:
        """The JSON object; keys parameter, value, method, [oracle, agree], witness."""
        r, w = self.result, self.result.witness
        out = {
            "parameter": "additional-searchers" if self.preoccupied else "czf",
            "value": r.value,
            "method": r.method,
        }
        if self.oracle is not None:
            out["oracle"] = {"name": self.oracle[0], "value": self.oracle[1]}
            out["agree"] = self.agree
        if isinstance(w, Strategy):
            out["witness"] = {"kind": "strategy", "actions": [list(a) for a in w.actions]}
            if self.preoccupied:
                out["witness"]["preoccupied"] = sorted(self.preoccupied)
        elif isinstance(w, Layout):
            counts = {str(v): c for v, c in sorted(w.counts.items())}
            out["witness"] = {"kind": "layout", "counts": counts}
        else:
            out["witness"] = {"kind": "forcing-set", "vertices": sorted(w)}
        return out


def verify(
    g: Graph,
    preoccupied=frozenset(),
    method: str = "auto",
    *,
    construction: CliqueConstruction | None = None,
    force: bool = False,
) -> Report:
    """solve, then an exhaustive oracle that shares no code with the solver
    that ran: cfms_exact with preoccupied vertices, d_exact after the exact
    method, czf_exact otherwise.  Past its ceiling, unless forced, the
    oracle raises ValueError before it starts."""
    pre = frozenset(preoccupied)
    result = solve(g, pre, method, construction=construction, force=force)
    if pre:
        oracle = "cfms_exact", cfms_exact(g, pre, force=force).value
    elif result.method == "exact":
        oracle = "d_exact", d_exact(g, force=force).value
    else:
        oracle = "czf_exact", czf_exact(g, force=force).value
    return Report(result, pre, oracle)
