"""Deduction game engine tests, anchored to the worked 7-vertex example."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onemove.deduction import (
    FiringSequence,
    Layout,
    check_order_invariance,
    check_terminal_success,
    fireable,
    is_successful,
    run_deduction,
)
from onemove.graphs import FamilySpec, Graph, generate, parse_edge_list

WORKED = "7 11\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n1 3\n5 6\n1 6\n0 2\n"


def worked_graph() -> Graph:
    return parse_edge_list(WORKED)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return Graph(n, frozenset(edges))


class TestLayout:
    def test_standard(self):
        lay = Layout.standard([0, 2, 3])
        assert lay.is_standard()
        assert lay.support() == frozenset({0, 2, 3})
        assert lay.total() == 3

    def test_multi(self):
        lay = Layout({1: 2, 4: 1})
        assert not lay.is_standard()
        assert lay.total() == 3

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            Layout({0: 0})

    def test_sequence_no_refire(self):
        with pytest.raises(ValueError, match="two stages"):
            FiringSequence(({0: (1,)}, {0: (2,)}))


class TestRun:
    def test_worked_all_fireable(self):
        g = worked_graph()
        state = run_deduction(g, Layout.standard([0, 2, 3, 5]))
        assert state.protected == frozenset(range(7))
        assert state.history.stage_sets() == [[0, 2], [3], [5]]
        assert state.history.stages[0] == {0: (1,), 2: (1,)}
        assert state.terminal_layout().counts == {1: 2, 4: 1, 6: 1}

    def test_worked_single_fire(self):
        # Firing the lowest-index vertex first strands the searcher on
        # vertex 2, which then has no unprotected neighbor left.
        g = worked_graph()
        state = run_deduction(g, Layout.standard([0, 2, 3, 5]), "single-fire-canonical")
        assert state.protected == frozenset(range(7))
        assert state.history.stage_sets() == [[0], [3], [5]]
        assert state.terminal_layout().counts == {1: 1, 2: 1, 4: 1, 6: 1}

    def test_worked_fire_third_vertex_first(self):
        g = worked_graph()
        state = run_deduction(
            g, Layout.standard([0, 2, 3, 5]), "explicit", stages=[[2], [3], [5]]
        )
        assert state.protected == frozenset(range(7))
        assert state.terminal_layout().counts == {0: 1, 1: 1, 4: 1, 6: 1}

    def test_c4_adjacent_pair(self):
        g = generate(FamilySpec("cycle", 4))
        state = run_deduction(g, Layout.standard([0, 1]))
        assert state.protected == frozenset(range(4))
        assert state.terminal_layout().counts == {2: 1, 3: 1}

    def test_c4_single_stage_not_enough(self):
        g = generate(FamilySpec("cycle", 4))
        state = run_deduction(g, Layout.standard([0, 1]), "explicit", stages=[[0]])
        assert state.protected == frozenset({0, 1, 3})

    def test_multi_searcher_fire(self):
        g = generate(FamilySpec("path", 3))
        state = run_deduction(g, Layout({1: 2}))
        assert state.protected == frozenset({0, 1, 2})
        assert state.history.stages == ({1: (0, 2)},)

    def test_excess_stays_put(self):
        g = generate(FamilySpec("path", 3))
        state = run_deduction(g, Layout({0: 2, 1: 1}))
        # vertex 1 fires into 2; the spare searcher on 0 never moves
        assert state.protected == frozenset({0, 1, 2})
        assert state.counts[0] == 2
        assert state.unmoved == {0: 2, 1: 0}

    def test_fireable_excludes_vacuous(self):
        g = generate(FamilySpec("path", 3))
        assert fireable(g, {0, 1, 2}, {0: 1}) == []
        assert fireable(g, {0, 1}, {1: 1}) == [1]
        assert fireable(g, {1}, {1: 1}) == []  # two unprotected neighbors

    def test_adjacency_built_once_per_game(self, monkeypatch):
        calls = []
        adjacency = Graph.adjacency

        def counted(g):
            calls.append(g.n)
            return adjacency(g)

        monkeypatch.setattr(Graph, "adjacency", counted)
        # 0 fires into 1, and only then can 2 fire into 3
        state = run_deduction(generate(FamilySpec("path", 5)), Layout.standard([0, 2]))
        assert len(state.history.stages) == 2
        assert len(calls) == 1

    def test_explicit_errors_name_stage_and_vertex(self):
        g = generate(FamilySpec("path", 4))
        with pytest.raises(ValueError, match="stage 0: vertex 1"):
            run_deduction(g, Layout.standard([1]), "explicit", stages=[[1]])
        with pytest.raises(ValueError, match="stage 1: vertex 0"):
            run_deduction(g, Layout.standard([0, 2]), "explicit", stages=[[0], [0]])

    def test_explicit_out_of_range(self):
        g = generate(FamilySpec("path", 2))
        with pytest.raises(ValueError, match="stage 0"):
            run_deduction(g, Layout.standard([0]), "explicit", stages=[[9]])

    def test_layout_out_of_range(self):
        g = generate(FamilySpec("path", 2))
        with pytest.raises(ValueError, match="out of range"):
            run_deduction(g, Layout.standard([5]))

    def test_policy_validation(self):
        g = generate(FamilySpec("path", 2))
        with pytest.raises(ValueError):
            run_deduction(g, Layout.standard([0]), "eager")
        with pytest.raises(ValueError):
            run_deduction(g, Layout.standard([0]), "explicit")
        with pytest.raises(ValueError):
            run_deduction(g, Layout.standard([0]), "all-fireable", stages=[[0]])


class TestSuccess:
    def test_worked(self):
        assert is_successful(worked_graph(), Layout.standard([0, 2, 3, 5]))
        assert not is_successful(worked_graph(), Layout.standard([0, 2, 3]))

    def test_p4(self):
        g = generate(FamilySpec("path", 4))
        assert is_successful(g, Layout.standard([0, 2]))
        assert is_successful(g, Layout.standard([1, 3]))
        assert is_successful(g, Layout.standard([1, 2]))
        assert not is_successful(g, Layout.standard([0, 1]))

    def test_k1(self):
        g = Graph(1, frozenset())
        assert is_successful(g, Layout.standard([0]))
        assert not is_successful(g, Layout({}))


@st.composite
def larger_layouts(draw):
    """A graph on 9 to 12 vertices and a layout of one to three searchers
    on each vertex of a nonempty support."""
    n = draw(st.integers(9, 12))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, p)
    counts = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), min_size=1))
    return g, Layout(counts)


class TestOrderInvariance:
    def test_worked(self):
        assert check_order_invariance(worked_graph(), Layout.standard([0, 2, 3, 5]))

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            check_order_invariance(worked_graph(), Layout.standard([0]), trials=1)

    def test_random_layouts(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            support = rng.sample(range(g.n), rng.randint(1, g.n))
            counts = {v: rng.randint(1, 2) for v in support}
            assert check_order_invariance(g, Layout(counts), trials=3, seed=rng.randint(0, 999))

    # test_random_layouts above and test_04 in test_acceptance stop at n = 8.
    @settings(max_examples=200, deadline=None)
    @given(inst=larger_layouts(), seed=st.integers(0, 10**6))
    def test_random_layouts_up_to_twelve(self, inst, seed):
        g, layout = inst
        assert check_order_invariance(g, layout, trials=3, seed=seed)


class TestTerminalSuccess:
    def test_worked(self):
        assert check_terminal_success(worked_graph(), Layout.standard([0, 2, 3, 5]))

    def test_c4(self):
        g = generate(FamilySpec("cycle", 4))
        assert check_terminal_success(g, Layout.standard([0, 1]))

    def test_unsuccessful_layout_rejected(self):
        g = generate(FamilySpec("cycle", 4))
        with pytest.raises(ValueError, match="not successful"):
            check_terminal_success(g, Layout.standard([0]))

    def test_random_successful_layouts(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            support = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            counts = {v: rng.randint(1, 2) for v in support}
            # grow the layout until it succeeds
            while not is_successful(g, Layout(counts)):
                state = run_deduction(g, Layout(counts))
                missing = sorted(set(range(g.n)) - state.protected)
                counts[missing[0]] = counts.get(missing[0], 0) + 1
            assert check_terminal_success(g, Layout(counts))
