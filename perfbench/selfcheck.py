"""Smoke run of the benchmark itself, at reduced size (one short pass each).

    python3 perfbench/selfcheck.py

For every workload it checks that:
  - the same seed generates byte-identical inputs, and another seed
    different ones;
  - an untraced run reports exactly the end-to-end metrics of
    BENCHMARK.json and a traced run exactly its per-layer metrics, with
    the same units;
  - no instance fails (fail_frac 0);
  - each result record carries the line count of src/onemove/.
Exits 1 and names the problem if any check fails.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

STRIDE = 8  # run every eighth traced instance of each pass


def problems(bench: dict) -> list[str]:
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    found = []
    for workload in workloads.WORKLOADS:
        first = [i["text"] for i in workloads.generate(workload, 7)]
        if first != [i["text"] for i in workloads.generate(workload, 7)]:
            found.append(f"{workload}: seed 7 generated different inputs twice")
        if first == [i["text"] for i in workloads.generate(workload, 8)]:
            found.append(f"{workload}: seeds 7 and 8 generated the same inputs")
        for trace in (False, True):
            record = run.run(workload, 7, 1.0, trace, stride=STRIDE)
            print(run.summary(record), flush=True)
            units = {name: m["unit"] for name, m in record["metrics"].items()}
            if units != wanted[trace]:
                missing = sorted(set(wanted[trace]) ^ set(units))
                found.append(f"{workload} trace={trace}: metric names or units differ: {missing or units}")
            if record["failed"]:
                found.append(f"{workload} trace={trace}: {record['failed']} failed: {record['failures']}")
            if not isinstance(record.get("src_onemove_lines"), int) or record["src_onemove_lines"] <= 0:
                found.append(f"{workload} trace={trace}: no src/onemove line count in the record")
    return found


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.WORKLOADS", file=sys.stderr)
        return 1
    found = problems(bench)
    for line in found:
        print(f"selfcheck: {line}", file=sys.stderr)
    print("selfcheck:", "FAILED" if found else "ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
