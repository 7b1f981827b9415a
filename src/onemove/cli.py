"""Command line front end.

solve hands an edge list to the library solver and emits a JSON report
whose witness has already been replayed.  simulate renders stage traces
of the three processes.  verify cross-checks a solver against an
independent oracle.  generate, reduce, and probe produce family members,
reduction instances, and edge-edit measurements.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .cactus import parse_cactus_instance
from .constructions import (
    contraction_probe,
    perturb_delta,
    vc_to_czf_reduction,
    write_reduction,
)
from .deduction import Layout, run_deduction
from .engines import Strategy, cfms_run, czf_run
from .exact import CZF_EXACT_CEILING, cfms_exact, czf_exact, d_exact
from .families import CliqueConstruction
from .graphs import FAMILY_KINDS, FamilySpec, Graph, generate, parse_edge_list, write_edge_list
from .solver import METHODS, solve

log = logging.getLogger(__name__)

USAGE_EXIT = 1
PARSE_EXIT = 2
INTERNAL_EXIT = 3

_SIZED_BY_N = ("path", "cycle", "complete", "star", "wheel")
_SIZED_BY_M = ("star_plus_matching", "k4_minus_star")

_POLICY_NAMES = {
    "all": "all-fireable",
    "single": "single-fire-canonical",
    "random": "random",
}


class UsageError(Exception):
    """A request that cannot be carried out as flagged."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for input
    # parse failures, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Input parsing.
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_instance(path: str) -> tuple[Graph, frozenset[int]]:
    """An edge list, and the preoccupied vertices when that line appears."""
    text = _read_text(path)
    if any(line.split()[:1] == ["preoccupied"] for line in text.splitlines()):
        inst = parse_cactus_instance(text)
        return inst.graph, inst.preoccupied
    return parse_edge_list(text), frozenset()


def _parse_layout_csv(text: str) -> Layout:
    counts: dict[int, int] = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        v = int(tok)
        counts[v] = counts.get(v, 0) + 1
    if not counts:
        raise ValueError("layout is empty")
    return Layout(counts)


def _read_certificate(path: str) -> CliqueConstruction:
    data = json.loads(_read_text(path))
    try:
        return CliqueConstruction(
            tuple(frozenset(c) for c in data["cliques"]),
            tuple(data["anchors"]),
            tuple(frozenset(a) for a in data["attachments"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed clique certificate: {exc}") from exc


# ---------------------------------------------------------------------------
# Solving.
# ---------------------------------------------------------------------------


def _witness_json(witness, preoccupied: frozenset[int]) -> dict:
    if isinstance(witness, Strategy):
        payload = {"kind": "strategy", "actions": [list(a) for a in witness.actions]}
        if preoccupied:
            payload["preoccupied"] = sorted(preoccupied)
        return payload
    if isinstance(witness, Layout):
        return {"kind": "layout", "counts": {str(v): c for v, c in sorted(witness.counts.items())}}
    return {"kind": "forcing-set", "vertices": sorted(witness)}


def _oracle(g: Graph, pre: frozenset[int], method: str, force: bool) -> tuple[str, int]:
    """Name and value of the exhaustive oracle that verify compares against."""
    if g.n > CZF_EXACT_CEILING and not force:
        raise ValueError(
            f"oracle cross-check refused for n={g.n} > {CZF_EXACT_CEILING}; "
            "pass --force to insist"
        )
    if pre:
        return "cfms_exact", cfms_exact(g, pre).value
    if method == "exact":
        # czf_exact was the solver, so the independent check is the
        # deduction oracle.
        return "d_exact", d_exact(g).value
    return "czf_exact", czf_exact(g, force=force).value


def _cmd_solve(args) -> int:
    """solve, and verify, which adds the oracle cross-check to the report."""
    g, pre = _read_instance(args.input)
    start = time.perf_counter()
    if args.method == "clique" and args.certificate is None:
        raise UsageError("--method clique needs --certificate")
    construction = _read_certificate(args.certificate) if args.method == "clique" else None
    sol = solve(g, pre, args.method, construction=construction, force=args.force)
    for line in sol.trace:
        log.info("cactus rule: %s", line)
    report = {
        "parameter": "additional-searchers" if pre else "czf",
        "value": sol.value,
        "method": sol.method,
    }
    if args.command == "verify":
        oracle_name, oracle = _oracle(g, pre, sol.method, args.force)
        report["oracle"] = {"name": oracle_name, "value": oracle}
        report["agree"] = sol.value == oracle
    report["witness"] = _witness_json(sol.witness, pre)
    report["ms"] = (time.perf_counter() - start) * 1000.0
    print(json.dumps(report))
    if report.get("agree") is False:
        print(f"solver {sol.method} disagrees with {report['oracle']['name']}", file=sys.stderr)
        return INTERNAL_EXIT
    return 0


# ---------------------------------------------------------------------------
# Simulation.
# ---------------------------------------------------------------------------


def _simulate_czf(g: Graph, layout: Layout) -> None:
    state = czf_run(g, layout.support())
    for u, v in state.forces:
        print(f"force {u} -> {v}")
    if state.colored == frozenset(range(g.n)):
        print("colored: all")
    else:
        print("colored:", " ".join(map(str, sorted(state.colored))))
        print("stuck:", " ".join(map(str, sorted(set(range(g.n)) - state.colored))))


def _simulate_deduction(g: Graph, layout: Layout, policy: str, seed) -> None:
    state = run_deduction(g, layout, policy, seed=seed)
    for i, stage in enumerate(state.history.stages, start=1):
        fired = " ".join(
            f"{v}->{','.join(map(str, targets))}" for v, targets in sorted(stage.items())
        )
        print(f"stage {i}: {fired}")
    terminal = " ".join(f"{v}:{c}" for v, c in sorted(state.terminal_layout().counts.items()))
    print("terminal:", terminal if terminal else "(empty)")
    if state.protected == frozenset(range(g.n)):
        print("protected: all")
    else:
        print("protected:", " ".join(map(str, sorted(state.protected))))
        print("stranded:", " ".join(map(str, sorted(set(range(g.n)) - state.protected))))


def _simulate_cfms(g: Graph, strategy: Strategy) -> None:
    cleared: frozenset = frozenset()
    state = None
    for i in range(len(strategy.actions)):
        state = cfms_run(g, Strategy(strategy.actions[: i + 1]))
        fresh = sorted(state.cleared_edges - cleared)
        cleared = state.cleared_edges
        label = " ".join(map(str, strategy.actions[i]))
        if fresh:
            print(f"{label}: clears", " ".join(f"({u},{v})" for u, v in fresh))
        else:
            print(f"{label}: clears nothing")
    success = state is not None and state.success
    if success:
        print("cleared: all")
    else:
        print(f"cleared: {len(cleared)}/{g.m}")
    print("success:", "true" if success else "false")


def _cmd_simulate(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    if args.model == "cfms":
        if args.strategy is None:
            raise UsageError("--model cfms needs --strategy")
        _simulate_cfms(g, Strategy.from_text(args.strategy))
        return 0
    if args.layout is None:
        raise UsageError(f"--model {args.model} needs --layout")
    layout = _parse_layout_csv(args.layout)
    if args.model == "czf":
        _simulate_czf(g, layout)
    else:
        policy = _POLICY_NAMES[args.policy]
        seed = args.seed if args.policy == "random" else None
        _simulate_deduction(g, layout, policy, seed)
    return 0


# ---------------------------------------------------------------------------
# Generation, reduction, probes.
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    kind = args.family
    if kind in _SIZED_BY_N:
        if args.n is None:
            raise UsageError(f"family {kind!r} needs --n")
        spec = FamilySpec(kind, args.n)
    elif kind in _SIZED_BY_M:
        if args.m is None:
            raise UsageError(f"family {kind!r} needs --m")
        spec = FamilySpec(kind, args.m)
    else:
        spec = FamilySpec(kind)
    print(write_edge_list(generate(spec)), end="")
    return 0


def _cmd_reduce(args) -> int:
    g = parse_edge_list(_read_text(args.vc_instance))
    inst = vc_to_czf_reduction(g, args.l)
    text, sidecar = write_reduction(inst)
    payload = json.loads(sidecar)
    payload["edge_list"] = text
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _probe_one(task):
    # Module level so probe grids can run under a process pool.
    mode, g, e = task
    if mode == "contract":
        before, after = contraction_probe(g, e)
        return {"edge": list(e), "before": before, "after": after}
    return {"edge": list(e), "delta": perturb_delta(g, e, mode)}


def _cmd_probe(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    start = time.perf_counter()
    if args.mode == "add":
        grid = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
    else:
        grid = g.sorted_edges()
    tasks = [(args.mode, g, e) for e in grid]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_probe_one, tasks))
    else:
        results = [_probe_one(t) for t in tasks]
    findings = [
        r["edge"] for r in results if args.mode == "contract" and r["after"] > r["before"]
    ]
    for u, v in findings:
        log.info("research finding: contracting (%d, %d) raised the value", u, v)
    report = {
        "parameter": f"probe-{args.mode}",
        "results": results,
        "findings": findings,
        "ms": (time.perf_counter() - start) * 1000.0,
    }
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="onemove", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--trace", action="store_true", help="human-readable trace on stderr")

    for name, text in (
        ("solve", "compute the clearing number with a witness"),
        ("verify", "cross-check a solver against an oracle"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", required=True, help="edge list file")
        p.add_argument("--method", default="auto", choices=METHODS)
        p.add_argument("--certificate", help="clique construction JSON, for --method clique")
        p.add_argument("--force", action="store_true", help="let the oracle exceed its ceiling")
        common(p)
        p.set_defaults(handler=_cmd_solve)

    simulate = sub.add_parser("simulate", help="render a stage trace of one process")
    simulate.add_argument("--input", required=True)
    simulate.add_argument("--model", required=True, choices=("czf", "deduction", "cfms"))
    simulate.add_argument("--layout", help="comma separated vertices, repeats allowed")
    simulate.add_argument("--strategy", help='actions like "place 0; slide 0 1"')
    simulate.add_argument("--policy", default="all", choices=tuple(_POLICY_NAMES))
    simulate.add_argument("--seed", type=int, default=0)
    common(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    gen = sub.add_parser("generate", help="write a family member as an edge list")
    gen.add_argument("--family", required=True, choices=FAMILY_KINDS)
    gen.add_argument("--n", type=int, help="vertex count, for the plain families")
    gen.add_argument("--m", type=int, help="family parameter, for the matched families")
    common(gen)
    gen.set_defaults(handler=_cmd_generate)

    reduce_p = sub.add_parser("reduce", help="build a cover-to-clearing reduction instance")
    reduce_p.add_argument("--vc-instance", required=True, dest="vc_instance")
    reduce_p.add_argument("--l", type=int, required=True, help="cover budget")
    common(reduce_p)
    reduce_p.set_defaults(handler=_cmd_reduce)

    probe = sub.add_parser("probe", help="measure every one-edge edit of one kind")
    probe.add_argument("--input", required=True)
    probe.add_argument("--mode", default="contract", choices=("add", "remove", "contract"))
    probe.add_argument("--jobs", type=int, default=1, help="worker processes for the grid")
    common(probe)
    probe.set_defaults(handler=_cmd_probe)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        format="%(message)s",
        level=logging.INFO if args.trace else logging.WARNING,
        force=True,
    )
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
