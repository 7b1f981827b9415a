"""The workload process: one closed-loop client running one instance at a time.

run.py launches this file and times it from launch until it prints
"ready", which it does right before its first timed instance; that span
is the set-up time (interpreter start, ``import onemove.cli`` with numpy,
and reading the pre-generated inputs).

Modes:
  setup  stop after "ready" (extra set-up samples);
  run    loop over whole passes of the instance list for about --seconds,
         with nothing installed;
  trace  the same untraced for about --seconds / 2, then, with span
         wrappers installed, one pass over the instances marked traced
         (one per grid cell: the per-instance counts repeat exactly and
         the span file stays bounded); writes the spans.

The CLI workloads call ``onemove.cli.main(["solve", "--input", path])``
in process with stdout and stderr captured; oracle-identity calls the four
exhaustive oracles.  Outputs are kept once per distinct content, so memory
does not grow with the number of passes, and written out after the loop;
run.py checks them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def _import_program(root: Path):
    """Import onemove from the checkout's src/, and from nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import onemove.cli

    if Path(onemove.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"onemove was imported from {onemove.cli.__file__}, not from {src}")
    return onemove.cli


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss over
    execve, so a worker launched from a larger parent would report the
    parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _oracle_output(czf, d, cfms, mu) -> str:
    """The four oracle results as canonical JSON."""
    return json.dumps(
        {
            "czf": [int(czf.value), [int(v) for v in czf.witness]],
            "d": [int(d.value), {str(v): int(c) for v, c in sorted(d.witness.counts.items())}],
            "cfms": [int(cfms.value), [[a[0], *map(int, a[1:])] for a in cfms.witness.actions]],
            "mu": [
                int(mu.value),
                [[int(a), int(b)] for a, b in mu.witness.matching],
                [int(v) for v in mu.witness.v1],
                [int(v) for v in mu.witness.v2],
            ],
        }
    )


_TIMING_FIELD = ', "ms": '


class Client:
    """Runs instances by index and keeps their distinct outputs."""

    def __init__(self, workload: str, manifest: list[dict], cli) -> None:
        self.manifest = manifest
        self.cli = cli
        self.graphs = []
        if workload == "oracle-identity":
            from onemove import exact, graphs

            self.exact = exact
            self.graphs = [graphs.parse_edge_list(Path(item["path"]).read_text()) for item in manifest]
        self.outputs: list[dict[tuple, list]] = [{} for _ in manifest]

    def run(self, index: int) -> tuple[float, int]:
        """Run one instance; returns (seconds, exit code)."""
        # An exception stands for a crashed process: exit 1, traceback on
        # stderr; the checks then count the instance as failed.
        if self.graphs:
            g, exact = self.graphs[index], self.exact
            start = time.perf_counter()
            try:
                results, err = (exact.czf_exact(g), exact.d_exact(g), exact.cfms_exact(g), exact.mu_exact(g)), ""
            except Exception:
                results, err = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            out, code = ("", 1) if results is None else (_oracle_output(*results), 0)
        else:
            stdout, stderr = io.StringIO(), io.StringIO()
            argv = ["solve", "--input", self.manifest[index]["path"]]
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    code = 1
                    traceback.print_exc()
            elapsed = time.perf_counter() - start
            out, err = stdout.getvalue(), stderr.getvalue()
        # The report's timing field differs run to run; the rest must not.
        key = (code, out.rpartition(_TIMING_FIELD)[0] or out, err)
        seen = self.outputs[index].get(key)
        if seen is None:
            self.outputs[index][key] = [code, out, err, 1]
        else:
            seen[3] += 1
        return elapsed, code

    def passes(self, seconds: float) -> list[list]:
        """As many whole passes over the instances as end nearest to
        `seconds`, at least one.  Returns [index, seconds, exit code] per
        instance run."""
        samples: list[list] = []
        begin = time.perf_counter()
        done = 0
        while True:
            for index in range(len(self.manifest)):
                elapsed, code = self.run(index)
                samples.append([index, elapsed, code])
            done += 1
            spent = time.perf_counter() - begin
            if spent + 0.5 * spent / done >= seconds:
                return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    cli = _import_program(args.root)
    manifest = json.loads(args.manifest.read_text())
    client = Client(args.workload, manifest, cli)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result: dict = {}
    if args.mode == "run":
        result["samples"] = client.passes(args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        import tracing

        untraced = client.passes(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        # Re-read the traced inputs under the tracer so set-up parsing
        # shows too, once per traced instance.
        Client(args.workload, [item for item in manifest if item["traced"]], cli)
        traced = []
        for index, item in enumerate(manifest):
            if item["traced"]:
                tracer.instance = index
                elapsed, code = client.run(index)
                traced.append([index, elapsed, code])
        tracer.uninstall()
        tracer.save(args.out.with_name("spans.npz"))
        result["untraced"] = untraced
        result["samples"] = traced
    result["outputs"] = [list(distinct.values()) for distinct in client.outputs]
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
