"""Source rules that no behavioural test can see."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from onemove.families import pendent_dismantle
from onemove.graphs import Graph

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


@pytest.mark.parametrize("module, path", _traced(), ids=str)
def test_traced_names_resolve(module, path):
    # The traced benchmark looks each name up in its owner's __dict__, so
    # deleting or renaming one breaks the benchmark, not only a caller.
    owner = importlib.import_module(f"onemove.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"onemove.{module}.{path} is gone"


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
