"""Benchmark of ``onemove solve`` and the exhaustive oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cactus-large --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from the seed (not timed), runs them
in a separate workload process as a closed loop with one client, checks
every output outside the timed region, and prints a summary followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (instances_per_s,
latency_ms_p50, latency_ms_p90, setup_s, peak_rss_mb; the summary also
gives fail_frac and the sample counts).  --trace 1 runs the same passes
untraced and then traced, and reports per-instance self time and calls of
every traced function, per-module self time, the dismantle backtrack
count and trace.overhead_frac.  Each run leaves a record (result.json,
plus spans.npz when traced) under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_LAUNCHES = 7  # set-up samples per run, the measuring launch included
DEADLINE_S = 170.0  # from the start of a run to the end of its last workload process


class BenchError(Exception):
    """The benchmark could not produce a result."""


def src_lines() -> int:
    """Line count of src/onemove/ (tracked, not gated)."""
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "onemove").rglob("*.py")))


def write_inputs(run_dir: Path, instances: list[dict]) -> Path:
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    manifest = []
    for i, inst in enumerate(instances):
        path = inputs / f"{i:03d}-{inst['name']}.el"
        path.write_text(inst["text"])
        manifest.append({"name": inst["name"], "path": str(path), "traced": inst["traced"]})
    path = run_dir / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def launch(cmd: list[str], deadline: float) -> float:
    """Run one workload process; returns seconds from launch to "ready"."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process overran the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"workload process failed (exit {code}): {' '.join(cmd)}")
    return ready


def check_outputs(workload: str, instances: list[dict], outputs: list[list]) -> tuple[dict, dict]:
    """Verdicts per (instance, distinct output); returns (failures, routes)
    with counts weighted by how many times each output was produced."""
    check = checks.check_oracles if workload == "oracle-identity" else checks.check_solve
    failures: dict[str, int] = {}
    routes: dict[str, int] = {}
    for inst, distinct in zip(instances, outputs):
        for code, out, err, times in distinct:
            try:
                why = check(inst, code, out, err)
            except Exception as exc:  # an output malformed in a way the checks did not foresee
                why = f"check raised {exc!r}"
            if why:
                key = f"{inst['name']}: {why}"
                failures[key] = failures.get(key, 0) + times
            if workload != "oracle-identity":
                if why:
                    route = "failed"
                elif code:
                    route = "refused"
                else:
                    route = json.loads(out)["method"]
                routes[route] = routes.get(route, 0) + times
    return failures, routes


def end_to_end(samples: list[list], setup: list[float], peak_rss_mb: float) -> dict[str, float]:
    latency = [s[1] for s in samples]
    return {
        "instances_per_s": len(latency) / sum(latency),
        "latency_ms_p50": statistics.median(latency) * 1000.0,
        "latency_ms_p90": statistics.quantiles(latency, n=10)[8] * 1000.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, stride: int = 1) -> dict:
    """One benchmark run.  stride > 1 makes it a reduced-size run over
    every stride-th traced instance only, for the self-check."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (ROOT / "src" / "onemove" / "__init__.py").is_file():
        raise BenchError(f"no onemove sources under {ROOT / 'src'}")
    run_dir = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    instances = workloads.generate(workload, seed)
    if stride > 1:
        instances = [i for i in instances if i["traced"]][::stride]
    manifest = write_inputs(run_dir, instances)
    out = run_dir / "worker.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
        "--manifest", str(manifest), "--seconds", str(seconds), "--out", str(out), "--mode",
    ]
    if trace:
        launch(cmd + ["trace"], deadline)
        setup: list[float] = []
    else:
        setup = [launch(cmd + ["setup"], deadline) for _ in range(SETUP_LAUNCHES - 1)]
        setup.append(launch(cmd + ["run"], deadline))
    result = json.loads(out.read_text())
    out.unlink()
    shutil.rmtree(run_dir / "inputs")

    samples = result["samples"]
    attempted = len(samples) + len(result.get("untraced", []))
    failures, routes = check_outputs(workload, instances, result["outputs"])
    failed = sum(failures.values())
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one client",
        "instances_per_pass": len(instances),
        "passes": len(result.get("untraced", samples)) // len(instances),
        "traced_instances": len(samples) if trace else 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "routes": routes,
        "failures": dict(list(failures.items())[:20]),
        "src_onemove_lines": src_lines(),
    }
    if trace:
        metrics = tracing.per_layer(run_dir / "spans.npz", len(samples))
        # Compare like with like: the untraced runs of the traced instances.
        untraced = [s for s in result["untraced"] if instances[s[0]]["traced"]]
        traced_mean = sum(s[1] for s in samples) / len(samples)
        untraced_mean = sum(s[1] for s in untraced) / len(untraced)
        metrics[tracing.OVERHEAD] = traced_mean / untraced_mean - 1.0
        units = {name: tracing.unit(name) for name in metrics}
    else:
        metrics = end_to_end(samples, setup, result["peak_rss_mb"])
        units = END_TO_END_UNITS
        record["latency_samples"] = len(samples)
        record["beyond_p90"] = sum(1 for s in samples if s[1] * 1000.0 > metrics["latency_ms_p90"])
        record["setup_samples_s"] = setup
    record["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    record["wall_s"] = time.monotonic() - started
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    return record


def summary(record: dict) -> str:
    traced = f" plus {record['traced_instances']} traced" if record["trace"] else ""
    lines = [
        f"{record['workload']} seed {record['seed']}: {record['attempted']} runs,"
        f" {record['passes']} passes of {record['instances_per_pass']} instances{traced},"
        f" {record['failed']} failed (fail_frac {record['fail_frac']:.4g})",
        f"  routes {record['routes']}  src/onemove lines {record['src_onemove_lines']}",
    ]
    for why in record["failures"]:
        lines.append(f"  FAILED {why}")
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:44s} {metric['value']:12.4f} {metric['unit']}")
    if not record["trace"]:
        lines.append(f"  {'fail_frac':44s} {record['fail_frac']:12.4f} frac (not gated)")
        lines.append(
            f"  latency samples {record['latency_samples']}, {record['beyond_p90']} beyond p90"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(summary(record))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
