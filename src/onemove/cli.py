"""Command line front end: parse arguments, read files, print, exit.

solve and verify print the JSON form of solver.Report, from solver.solve
and solver.verify (which adds an independent oracle), plus the run time
in ms.  simulate renders stage traces of the three processes; the
sliding one steps engines.Clearing.  generate, reduce, and probe produce
family members, reduction instances, and edge-edit measurements.
graphs.parse_instance reads every input graph; reduce and probe read
through graphs.parse_edge_list, which refuses a preoccupied line.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time

from .constructions import probe_edit, probe_grid, vc_to_czf_reduction, write_reduction
from .deduction import Layout, run_deduction
from .engines import Clearing, Strategy, czf_run
from .families import CliqueConstruction
from .graphs import FAMILY_KINDS, FamilySpec, Graph, edge_key, generate, write_edge_list
from .graphs import parse_edge_list, parse_instance
from .solver import METHODS, Report, solve, verify

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


def _parse_layout_csv(text: str) -> Layout:
    counts: dict[int, int] = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            v = int(tok)
        except ValueError:
            raise ValueError(f"layout entry {tok!r} is not a vertex index") from None
        counts[v] = counts.get(v, 0) + 1
    if not counts:
        raise ValueError("layout is empty")
    return Layout(counts)


def _read_certificate(path: str) -> CliqueConstruction:
    """The construction in a certificate file.  A bool or a repeated
    member would merge into one vertex once a frozenset is built (True is
    1 to Python), so each clique and attachment list is checked first."""
    data = json.loads(_read_text(path))
    try:
        for part in ("clique", "attachment"):
            for i, members in enumerate(data[part + "s"]):
                for v in members:
                    if isinstance(v, bool):
                        raise ValueError(f"{part} {i} holds {v!r}, not a vertex index")
                if len(set(members)) != len(members):
                    raise ValueError(f"{part} {i} repeats a vertex")
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


def _cmd_solve(args) -> int:
    """solve, and verify, which adds the oracle cross-check to the report."""
    if args.method == "clique" and args.certificate is None:
        raise UsageError("--method clique needs --certificate")
    if args.method != "clique" and args.certificate is not None:
        raise UsageError("--certificate needs --method clique")
    g, pre = parse_instance(_read_text(args.input))
    pre = pre or frozenset()
    start = time.perf_counter()
    construction = _read_certificate(args.certificate) if args.method == "clique" else None
    if args.command == "verify":
        report = verify(g, pre, args.method, construction=construction, force=args.force)
    else:
        report = Report(solve(g, pre, args.method, construction=construction, force=args.force), pre)
    print(json.dumps({**report.to_json(), "ms": (time.perf_counter() - start) * 1000.0}))
    if report.agree is False:
        print(f"solver {report.result.method} disagrees with {report.oracle[0]}", file=sys.stderr)
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


def _simulate_cfms(g: Graph, strategy: Strategy, preoccupied: frozenset[int]) -> None:
    run = Clearing(g, preoccupied)
    for i, act in enumerate(strategy.actions):
        fresh = sorted(edge_key(act[-1], w) for w in run.apply(act, i))  # act[-1] gained the searcher
        label = " ".join(map(str, act))
        if fresh:
            print(f"{label}: clears", " ".join(f"({u},{v})" for u, v in fresh))
        else:
            print(f"{label}: clears nothing")
    print("cleared:", "all" if run.cleared == g.m else f"{run.cleared}/{g.m}")
    unvisited = sorted(set(range(g.n)) - run.ever_occupied)
    if unvisited:
        print("unvisited:", " ".join(map(str, unvisited)))
    print("success:", "true" if run.succeeded(g) else "false")


def _cmd_simulate(args) -> int:
    """Each model reads one of --strategy (cfms) and --layout (czf,
    deduction): it needs that flag and refuses the other."""
    wanted, other = ("strategy", "layout") if args.model == "cfms" else ("layout", "strategy")
    if getattr(args, wanted) is None:
        raise UsageError(f"--model {args.model} needs --{wanted}")
    if getattr(args, other) is not None:
        raise UsageError(f"--model {args.model} takes no --{other}")
    g, pre = parse_instance(_read_text(args.input))
    if args.model == "cfms":
        _simulate_cfms(g, Strategy.from_text(args.strategy), pre or frozenset())
        return 0
    if pre:
        raise ValueError(f"--model {args.model} takes no preoccupied line")
    layout = _parse_layout_csv(args.layout)
    if args.model == "czf":
        _simulate_czf(g, layout)
    else:
        # run_deduction reads the seed only under the random policy.
        _simulate_deduction(g, layout, _POLICY_NAMES[args.policy], args.seed)
    return 0


# ---------------------------------------------------------------------------
# Generation, reduction, probes.
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    kind = args.family
    flag = "n" if kind in _SIZED_BY_N else "m" if kind in _SIZED_BY_M else None
    size = getattr(args, flag) if flag else None
    if flag and size is None:
        raise UsageError(f"family {kind!r} needs --{flag}")
    print(write_edge_list(generate(FamilySpec(kind, size))), end="")
    return 0


def _cmd_reduce(args) -> int:
    g = parse_edge_list(_read_text(args.vc_instance))
    inst = vc_to_czf_reduction(g, args.l)
    text, sidecar = write_reduction(inst)
    payload = json.loads(sidecar)
    payload["edge_list"] = text
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported when called: only
    probe --jobs starts a pool, so no other command pays for the import."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _cmd_probe(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    start = time.perf_counter()
    tasks = probe_grid(g, args.mode)
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(probe_edit, tasks))
    else:
        results = [probe_edit(t) for t in tasks]
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


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
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
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
