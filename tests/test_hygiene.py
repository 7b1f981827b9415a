"""Source rules that no behavioural test can see."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from onemove.families import pendent_dismantle
from onemove.graphs import FamilySpec, Graph, generate, write_edge_list

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "onemove").glob("*.py"))


def _traced():
    """perfbench's TRACED list, read from its file without importing perfbench."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so an invariant kept by one would vanish;
    # invariants raise real errors instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assertion_errors(path):
    # A broken invariant raises RuntimeError ("...; this is a bug"), the
    # one error the CLI maps to its internal-error exit; nothing raises
    # or catches AssertionError.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "AssertionError"
    ]
    assert lines == [], f"{path.name} names AssertionError at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_used(path):
    # A module-level import counts as used when the module reads its name
    # somewhere or lists it in __all__.
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    unused = {name: line for name, line in bound.items() if name not in read}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_names_read(path):
    # A private module-level function, class or constant is read by its
    # own module outside its own definition, or it is a stranded helper.
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [
        {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body
    ]
    unread = {}
    for i, stmt in enumerate(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in seen for j, seen in enumerate(reads) if j != i):
                unread[name] = stmt.lineno
    assert unread == {}, f"{path.name} defines private names it never reads: {unread}"


# The one module-level call allowed: a module's logger.
MODULE_LOGGER = "logging.getLogger(__name__)"


def _computes(node: ast.AST) -> bool:
    """Whether evaluating a module-level value does any work: anything
    beyond literals, names, constant arithmetic and type subscripts such
    as tuple[int, int]."""
    plain = (ast.Constant, ast.Name, ast.Tuple, ast.List, ast.Set, ast.Dict, ast.Subscript, ast.BinOp, ast.UnaryOp)
    return any(isinstance(sub, ast.expr) and not isinstance(sub, plain) for sub in ast.walk(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_work(path):
    # Importing a module runs its top level at every process start, and
    # the benchmark counts that start-up.  A table or other derived value
    # is built on first use inside a function, never at import.
    tree = ast.parse(path.read_text(), filename=str(path))
    working = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.AugAssign) or (
            isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and stmt.value is not None
            and ast.unparse(stmt.value) != MODULE_LOGGER
            and _computes(stmt.value)
        ):
            working[stmt.lineno] = ast.unparse(stmt)
    assert working == {}, f"{path.name} computes at import: {working}"


# Where src/ may replay a witness: solve, once for every result it
# returns, and the entry points that report a witness without solve.
CERTIFY_CALLERS = {
    ("solver", "solve"),
    ("families", "attach_trees_solve"),
    ("constructions", "cover_to_strategy"),
    ("constructions", "subdivision_value"),
}


def test_certify_called_only_at_the_gates():
    # A solver that solve routes to and that replayed its own witness
    # would have it replayed twice.
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = getattr(stmt, "name", f"line {stmt.lineno}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                    if name == "certify":
                        callers.add((path.stem, owner))
    assert callers == CERTIFY_CALLERS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported(path):
    # A module takes only another module's public names, so a private
    # helper can change without a caller elsewhere noticing.
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("onemove"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names: {private}"


def test_cli_only_parses_and_prints():
    # The oracle choice, the report and agree live in solver.verify, and
    # the sliding run is engines' public Clearing: cli.py runs no check
    # itself (test_no_private_names_imported keeps it off private names).
    checks = {"czf_exact", "d_exact", "cfms_exact", "mu_exact", "certify"}
    called = []
    for node in ast.walk(ast.parse((ROOT / "src" / "onemove" / "cli.py").read_text())):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name in checks:
                called.append(name)
    assert called == []


def _names_reached(oracle):
    """Every name that oracle, and each exact.py function it reaches,
    mentions, mapped to the first function seen mentioning it."""
    tree = ast.parse((ROOT / "src" / "onemove" / "exact.py").read_text())
    defs = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    names, todo = {}, [oracle]
    while todo:
        owner = todo.pop()
        for node in ast.walk(defs[owner]):
            found = [node.id] if isinstance(node, ast.Name) else []
            found += [node.attr] if isinstance(node, ast.Attribute) else []
            found += [alias.name for alias in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
            for name in found:
                if name in defs and name not in names:
                    todo.append(name)
                names.setdefault(name, owner)
    return names


# The deduction search's own helpers, which no other oracle may reach.
_DEDUCTION = {"d_exact", "_first_layout", "_layout_parts", "_layout_planes", "_least_protecting_row"}


def test_sliding_oracle_stays_off_the_other_oracles_paths():
    # cfms_exact, and every exact.py function it reaches, names neither
    # the deduction search's code nor numpy, so the oracles stay
    # independent and the sliding search loads nothing at run time.
    names = _names_reached("cfms_exact")
    assert "_slides_clear" in names
    banned = _DEDUCTION | {"numpy", "np"}
    assert {name: owner for name, owner in names.items() if name in banned} == {}


def test_forcing_oracle_stays_off_the_other_oracles_paths():
    # The same for czf_exact: its sweep is its own and pure Python.
    names = _names_reached("czf_exact")
    assert "_least_forcing_row" in names
    banned = _DEDUCTION | {"_slides_clear", "numpy", "np"}
    assert {name: owner for name, owner in names.items() if name in banned} == {}


def test_deduction_oracle_stays_off_the_other_oracles_paths():
    # And for d_exact: its sweep shares no helper with the forcing
    # search, although both are bit-sliced.
    names = _names_reached("d_exact")
    assert "_least_protecting_row" in names
    banned = {
        "_least_forcing_row", "_member_bits", "_mask_chunks", "_first_full",
        "_slides_clear", "czf_exact", "cfms_exact", "numpy", "np",
    }
    assert {name: owner for name, owner in names.items() if name in banned} == {}


@pytest.mark.parametrize("module, path", _traced(), ids=str)
def test_traced_names_resolve(module, path):
    # The traced benchmark looks each name up in its owner's __dict__, so
    # deleting or renaming one breaks the benchmark, not only a caller.
    owner = importlib.import_module(f"onemove.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"onemove.{module}.{path} is gone"


# A dotted reference to a module of the package, with or without the
# "onemove." prefix, in prose, code or a README example, and each name a
# "from onemove.<module> import" line takes; file names such as cli.py
# are not references.
_MODULES = "graphs|cactus|engines|exact|families|deduction|solver|cli|constructions"
_DOTTED = re.compile(rf"(?<![\w.])(?:onemove\.)?({_MODULES})(?!\.py\b)((?:\.[A-Za-z_]\w*)+)")
_IMPORT = re.compile(rf"from onemove\.({_MODULES}) import ([\w, ]+)")


def test_dotted_names_resolve():
    # A docstring or the README that still names a removed or renamed
    # function, such as families' mention of a deleted helper, fails here.
    stale = []
    for path in [*SOURCES, ROOT / "README.md"]:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            refs = [(m[1], m[2][1:].split(".")) for m in _DOTTED.finditer(line)]
            names = [(m[1], name.strip()) for m in _IMPORT.finditer(line) for name in m[2].split(",")]
            refs += [(module, [name]) for module, name in names if name]
            for module, parts in refs:
                owner = importlib.import_module(f"onemove.{module}")
                for part in parts:
                    if not hasattr(owner, part):
                        stale.append(f"{path.name}:{lineno}: {module}.{'.'.join(parts)}")
                        break
                    owner = getattr(owner, part)
    assert stale == []


def test_pendent_dismantle_takes_stats():
    # The tracer always calls it as pendent_dismantle(g, stats=...).
    stats = {}
    assert pendent_dismantle(Graph(2, [(0, 1)]), stats=stats) is not None
    assert stats == {"backtracks": 0}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_names_exist(path):
    module = importlib.import_module("onemove" if path.stem == "__init__" else f"onemove.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], f"{path.name} exports missing names {missing}"


# Run in a fresh interpreter: prints the heavy modules loaded after
# importing the CLI and after each command, in order, as JSON.
_IMPORT_PROBE = """
import contextlib, io, json, sys
HEAVY = ("numpy", "concurrent.futures", "multiprocessing")
from onemove import cli
seen = [("import", None, None, [m for m in HEAVY if m in sys.modules])]
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    method = json.loads(out.getvalue()).get("method") if code == 0 else None
    seen.append((name, code, method, [m for m in HEAVY if m in sys.modules]))
print(json.dumps(seen))
"""


def test_polynomial_routes_import_no_numpy_or_pool(tmp_path):
    # Nothing in the package imports numpy, and only probe --jobs starts a
    # process pool.  verify on a preoccupied cactus runs the cactus solver
    # and the sliding oracle, which use neither.
    k4_corona = [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(v, v + 4) for v in range(4)]
    graphs = {
        "tree": generate(FamilySpec("star", 9)),
        "unicyclic": generate(FamilySpec("cycle", 7)),
        "cactus": Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
        "dismantle": Graph(8, k4_corona),
        # The forcing search, on a size class of C(12, 6) = 924 start sets.
        "exact": generate(FamilySpec("cycle", 12)),
    }
    runs = []
    for name, g in graphs.items():
        path = tmp_path / f"{name}.el"
        path.write_text(write_edge_list(g))
        argv = ["solve", "--input", str(path)]
        runs.append((name, argv + (["--method", "exact"] if name == "exact" else [])))
    # verify after the exact method runs the deduction oracle.
    runs.append(("verify-exact", ["verify", "--input", str(path), "--method", "exact"]))
    path = tmp_path / "verify-preoccupied.el"
    path.write_text(write_edge_list(graphs["cactus"]) + "preoccupied 0 3\n")
    runs.insert(3, ("verify-preoccupied", ["verify", "--input", str(path)]))
    path = tmp_path / "cactus.el"
    runs.append(("probe-jobs", ["probe", "--input", str(path), "--mode", "remove", "--jobs", "2"]))
    pythonpath = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=pythonpath)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    seen = json.loads(done.stdout)
    assert seen == [
        ["import", None, None, []],
        ["tree", 0, "tree", []],
        ["unicyclic", 0, "unicyclic", []],
        ["cactus", 0, "cactus", []],
        ["verify-preoccupied", 0, "cactus", []],
        ["dismantle", 0, "dismantle", []],
        ["exact", 0, "exact", []],
        ["verify-exact", 0, "exact", []],
        # The checks above are not vacuous: probe --jobs does load the pool.
        ["probe-jobs", 0, None, ["concurrent.futures", "multiprocessing"]],
    ]


# Run in a fresh interpreter: runs the four exhaustive oracles on one
# graph and prints their values and whether numpy was loaded.
_ORACLE_PROBE = """
import json, sys
from onemove import exact
from onemove.graphs import FamilySpec, generate
g = generate(FamilySpec("wheel", 9))
values = [oracle(g).value for oracle in (exact.czf_exact, exact.d_exact, exact.cfms_exact, exact.mu_exact)]
print(json.dumps([values, "numpy" in sys.modules]))
"""


def test_oracles_run_without_numpy():
    pythonpath = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _ORACLE_PROBE],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), timeout=120, check=True,
    )
    assert json.loads(done.stdout) == [[5, 5, 5, 4], False]
