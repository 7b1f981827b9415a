"""Outside-in span tracing of onemove's public functions.

The tracer wraps functions from this benchmark's side and patches no
code under src/: each traced function is replaced, in every onemove
module namespace that bound it by name, by a wrapper that records one
span (name, start, end, parent span, instance id).  Graph methods are
wrapped on the class.  Spans live in flat arrays in memory and are
written out once, when the run ends.  uninstall() restores every
binding, so a process can alternate traced and untraced work.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute path) of every traced function.  Names in the
# per-layer metrics are "<module>.<attribute path>.<metric>".
TRACED = (
    ("graphs", "parse_edge_list"),
    ("graphs", "classify"),
    ("graphs", "induced_subgraph"),
    ("graphs", "Graph.adjacency"),
    ("graphs", "Graph.degree"),
    ("cactus", "parse_cactus_instance"),
    ("cactus", "cactus_solve"),
    ("engines", "czf_run"),
    ("engines", "cfms_run"),
    ("engines", "complete_with_slides"),
    ("deduction", "run_deduction"),
    ("deduction", "fireable"),
    ("exact", "czf_exact"),
    ("exact", "d_exact"),
    ("exact", "cfms_exact"),
    ("exact", "mu_exact"),
    ("families", "tree_solve"),
    ("families", "unicyclic_solve"),
    ("families", "pendent_dismantle"),
    ("families", "dismantling_strategy"),
    ("cli", "main"),
)
MODULES = tuple(dict.fromkeys(module for module, _ in TRACED))
SPAN_NAMES = tuple(f"{module}.{path}" for module, path in TRACED)
BACKTRACKS = "families.pendent_dismantle.backtracks"
OVERHEAD = "trace.overhead_frac"
SETUP_INSTANCE = -1  # instance id of spans recorded while reading inputs


class Tracer:
    """Span recorder; set .instance before each instance is run."""

    def __init__(self) -> None:
        self.instance = SETUP_INSTANCE
        self.names = array("i")
        self.parents = array("q")
        self.instances = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.backtracks = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every TRACED function wherever an onemove module bound it."""
        import onemove.cli  # noqa: F401  (loads every traced module)

        modules = [m for name, m in sys.modules.items() if name == "onemove" or name.startswith("onemove.")]
        for nid, (module, path) in enumerate(TRACED):
            owner = sys.modules[f"onemove.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            target = self._with_stats(original) if path == "pendent_dismantle" else original
            wrapper = self._span(nid, target)
            if outer:  # a method: patch the class, where every caller finds it
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _span(self, nid: int, fn):
        names, parents, instances = self.names, self.parents, self.instances
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            instances.append(tracer.instance)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def _with_stats(self, fn):
        """pendent_dismantle, always given a stats dict so its backtrack
        count can be read back even when the caller passed none."""
        tracer = self

        @functools.wraps(fn)
        def counted(g, *, stats=None):
            own = {} if stats is None else stats
            try:
                return fn(g, stats=own)
            finally:
                tracer.backtracks += own.get("backtracks", 0)

        return counted

    def save(self, path) -> None:
        """Write the spans as a .npz of parallel columns."""
        import numpy as np

        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.names, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            instance=np.frombuffer(self.instances, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            backtracks=np.array(self.backtracks),
        )


def per_layer(spans_path, instances: int) -> dict[str, float]:
    """Per-instance self time (ms) and calls of every traced function, the
    self time of each module, and the dismantle backtrack count.

    A span's self time is its duration minus the durations of its direct
    children; spans nest, so that is the part no child covers.
    """
    import numpy as np

    with np.load(spans_path) as data:
        name, parent = data["name"], data["parent"]
        duration = data["end"] - data["start"]
        backtracks = int(data["backtracks"])
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
    own = duration - covered
    count = len(SPAN_NAMES)
    calls = np.bincount(name, minlength=count)
    self_ms = np.bincount(name, weights=own, minlength=count) * 1000.0
    out: dict[str, float] = {}
    modules = dict.fromkeys(MODULES, 0.0)
    for nid, label in enumerate(SPAN_NAMES):
        out[f"{label}.self_ms"] = float(self_ms[nid]) / instances
        out[f"{label}.calls"] = float(calls[nid]) / instances
        modules[TRACED[nid][0]] += float(self_ms[nid]) / instances
    for module, total in modules.items():
        out[f"{module}.self_ms"] = total
    out[BACKTRACKS] = backtracks / instances
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name.endswith(".self_ms"):
        return "ms"
    return "frac" if name == OVERHEAD else "count"

