"""The library solve() on every route, against the exhaustive search."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onemove import engines, solver
from onemove.cactus import CactusInstance, cactus_solve
from onemove.engines import certify
from onemove.exact import CFMS_EXACT_CEILING, CZF_EXACT_CEILING, D_EXACT_CEILING, czf_exact
from onemove.families import (
    CliqueConstruction,
    dismantling_strategy,
    pendent_dismantle,
    tree_solve,
    unicyclic_solve,
)
from onemove.graphs import FamilySpec, Graph, classify, connected_components, edge_key, generate
from onemove.solver import Report, solve, verify


@st.composite
def small_graphs(draw):
    """A graph on at most 12 vertices: uniformly random, random with
    pendant vertices hung on it, or a relabeled cactus forest."""
    shape = draw(st.sampled_from(("random", "pendants", "cactus")))
    if shape == "cactus":
        n = draw(st.integers(1, 12))
        edges = set()
        v = 1
        while v < n:
            if draw(st.integers(0, 5)) == 0:
                v += 1  # v roots a new component
                continue
            size = draw(st.integers(1, min(n - v, 5)))
            ring = [draw(st.integers(0, v - 1)), *range(v, v + size)]
            edges |= {edge_key(ring[i - 1], ring[i]) for i in range(len(ring))}
            v += size
        perm = draw(st.permutations(range(n)))
        return Graph(n, {edge_key(perm[a], perm[b]) for a, b in edges})
    core = draw(st.integers(1, 12 if shape == "random" else 6))
    pairs = [(a, b) for a in range(core) for b in range(a + 1, core)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {pair for pair, kept in zip(pairs, keep) if kept}
    n = core
    if shape == "pendants":
        for v in sorted(draw(st.sets(st.integers(0, core - 1), min_size=1))):
            edges.add((v, n))
            n += 1
    return Graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_auto_solve_matches_exhaustive_search(g):
    # Covers every auto route: tree, unicyclic and cactus (all through the
    # cactus core but trees), dismantle and the exhaustive search itself.
    sol = solve(g)
    assert sol.value == czf_exact(g).value
    certify(g, sol.witness)


def _dismantlable(g):
    """Whether deleting pendant edges, both ends each time, removes every edge."""
    nbrs = {v: set(row) for v, row in enumerate(g.adjacency())}
    while True:
        leaf = next((v for v, row in nbrs.items() if len(row) == 1), None)
        if leaf is None:
            return not any(nbrs.values())
        (other,) = nbrs[leaf]
        for x in (leaf, other):
            for w in nbrs.pop(x):
                nbrs[w].discard(x)


def _accepts(g):
    """The explicit methods that take g, by each one's documented shape."""
    parts = len(connected_components(g))
    return {
        "tree": g.m == g.n - parts,
        "unicyclic": parts == 1 and g.m == g.n,
        "cactus": classify(g).is_cactus,
        "dismantle": _dismantlable(g),
        "exact": True,
    }


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_explicit_methods_match_exhaustive_search(g):
    value = czf_exact(g).value
    for method, accepted in _accepts(g).items():
        if not accepted:
            with pytest.raises(ValueError):
                solve(g, method=method)
            continue
        sol = solve(g, method=method)
        assert (sol.method, sol.value) == (method, value)
        certify(g, sol.witness)


def test_building_blocks_do_not_replay(count_calls):
    # solve certifies each result once, so the solvers it routes to leave
    # the replay to it.
    replays = count_calls(engines.cfms_run)
    bowtie = generate(FamilySpec("bowtie", 5))
    spiky = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)])
    tree_solve(generate(FamilySpec("star", 5)))
    unicyclic_solve(generate(FamilySpec("cycle", 6)))
    cactus_solve(CactusInstance(bowtie))
    cactus_solve(CactusInstance(bowtie, frozenset({0, 3})))
    dismantling_strategy(spiky, pendent_dismantle(spiky))
    assert replays == []


@pytest.mark.parametrize(
    "g, pre, method, oracle",
    [
        (generate(FamilySpec("cycle", 6)), frozenset(), "auto", "czf_exact"),
        # czf_exact was the solver, so the deduction search checks it.
        (generate(FamilySpec("cycle", 6)), frozenset(), "exact", "d_exact"),
        (generate(FamilySpec("cycle", 4)), frozenset({1, 3}), "auto", "cfms_exact"),
    ],
    ids=["czf", "deduction", "sliding"],
)
def test_verify_picks_an_independent_oracle(g, pre, method, oracle):
    report = verify(g, pre, method)
    assert report.result == solve(g, pre, method)
    assert report.preoccupied == pre
    assert report.oracle == (oracle, report.result.value)
    assert report.agree is True
    assert Report(report.result, pre).agree is None


@pytest.mark.parametrize(
    "g, pre, oracle",
    [
        # Each input solves in polynomial time; only its oracle is past the ceiling.
        (generate(FamilySpec("star", CZF_EXACT_CEILING + 1)), frozenset(), "czf_exact"),
        (generate(FamilySpec("complete", D_EXACT_CEILING + 1)), frozenset(), "d_exact"),
        (generate(FamilySpec("cycle", CFMS_EXACT_CEILING + 1)), frozenset({0}), "cfms_exact"),
    ],
    ids=["czf", "deduction", "sliding"],
)
def test_verify_refuses_past_the_oracle_ceiling(g, pre, oracle):
    solve(g, pre)
    with pytest.raises(ValueError, match=f"{oracle}.*refused|refused.*{oracle}"):
        verify(g, pre)


def test_verify_reports_disagreement(monkeypatch):
    g = generate(FamilySpec("cycle", 6))
    monkeypatch.setattr(solver, "d_exact", lambda g, force=False: SimpleNamespace(value=99))
    report = verify(g, method="exact")
    assert (report.oracle, report.agree) == (("d_exact", 99), False)
    assert report.to_json()["agree"] is False


@pytest.mark.parametrize(
    "cliques, anchors, message",
    [
        ([frozenset({0, 1})], [[0]], r"anchor 0 holds \[0\]"),
        ([frozenset({0, 1})], ["0"], "anchor 0 holds '0'"),
        ([frozenset({0, True})], [0], "clique 0 holds True"),
    ],
    ids=["anchor-list", "anchor-string", "bool-member"],
)
def test_clique_construction_members_are_ints(cliques, anchors, message):
    # Checked before any set operation, so a list is not hashed and True
    # does not pass for vertex 1.
    construction = CliqueConstruction(tuple(cliques), tuple(anchors), ())
    with pytest.raises(ValueError, match=message):
        solve(Graph(2, {(0, 1)}), method="clique", construction=construction)
