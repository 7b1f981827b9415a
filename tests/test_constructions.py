"""Reduction instances, subdivision formula, spectrum sweep, edit probes."""

import itertools
import json
import random
from types import SimpleNamespace

import pytest

from onemove import constructions
from onemove.constructions import (
    ReductionInstance,
    contraction_probe,
    cover_to_strategy,
    monotone_chain,
    perturb_delta,
    spectrum_witness,
    subdivision_value,
    vc_to_czf_reduction,
    write_reduction,
)
from onemove.engines import cfms_run, czf_run
from onemove.exact import czf_exact
from onemove.graphs import (
    FamilySpec,
    Graph,
    connected_components,
    generate,
    parse_edge_list,
    subdivide_all,
)

K33 = Graph(6, {(i, 3 + j) for i in range(3) for j in range(3)})
PRISM = Graph(6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)})
Q3 = Graph(
    8,
    {(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 7), (6, 7), (0, 4), (1, 5), (2, 6), (3, 7)},
)
PETERSEN = Graph(
    10,
    {(i, (i + 1) % 5) for i in range(5)}
    | {(i + 5, (i + 2) % 5 + 5) for i in range(5)}
    | {(i, i + 5) for i in range(5)},
)


def random_cubic(rng, n):
    """A connected cubic graph on even n, by edge swaps on a circulant."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {(i, i + n // 2) for i in range(n // 2)}
    g = Graph(n, edges)
    for _ in range(6 * n):
        (a, b), (c, d) = rng.sample(g.sorted_edges(), 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or g.has_edge(a, c) or g.has_edge(b, d):
            continue
        trial = Graph(n, (g.edges - {(a, b), (min(c, d), max(c, d))}) | {(a, c), (b, d)})
        if len(connected_components(trial)) == 1:
            g = trial
    return g


def greedy_cover(g):
    """Both endpoints of each uncovered edge in turn; a cover, not minimum."""
    cover = set()
    for u, v in g.sorted_edges():
        if u not in cover and v not in cover:
            cover |= {u, v}
    return cover


def connected_graphs(n, max_edges):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        if mask.bit_count() > max_edges:
            continue
        g = Graph(n, {pairs[i] for i in range(len(pairs)) if mask >> i & 1})
        if len(connected_components(g)) == 1:
            yield g


class TestReductionInstance:
    def test_k4_counts(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 3)
        assert inst.h.n == 56
        assert inst.k == 31
        roles = inst.h.roles
        assert sum(1 for r in roles.values() if r == "base") == 8
        assert sum(1 for r in roles.values() if r == "inner") == 48

    def test_k33_counts(self):
        inst = vc_to_czf_reduction(K33, 4)
        assert (inst.h.n, inst.k) == (84, 46)

    def test_prism_counts(self):
        inst = vc_to_czf_reduction(PRISM, 3)
        assert (inst.h.n, inst.k) == (84, 45)

    def test_fiber_edges_tagged(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 1)
        tagged = {e for e, tag in inst.h.edge_roles.items() if tag == "base-edge"}
        assert tagged == {(2 * v, 2 * v + 1) for v in range(4)}

    def test_block_structure(self):
        g = generate(FamilySpec("complete", 4))
        inst = vc_to_czf_reduction(g, 2)
        seen_inner = set()
        for (u, v), quads in inst.blocks.items():
            assert [(a % 2, b % 2) for a, b, _, _ in quads] == [(0, 0), (0, 1), (1, 0), (1, 1)]
            for a, b, p, q in quads:
                assert {a // 2, b // 2} == {u, v}
                assert inst.h.degree(p) == 3 and inst.h.degree(q) == 3
                seen_inner |= {p, q}
        assert seen_inner == set(range(2 * g.n, inst.h.n))

    def test_degree_bound_is_tight_on_cubic_inputs(self):
        for g in (generate(FamilySpec("complete", 4)), K33, PRISM, Q3, PETERSEN):
            inst = vc_to_czf_reduction(g, 1)
            assert max(inst.h.degree(v) for v in range(inst.h.n)) == 19

    def test_rejects_noncubic(self):
        with pytest.raises(ValueError, match="cubic"):
            vc_to_czf_reduction(generate(FamilySpec("path", 4)), 2)

    def test_rejects_disconnected(self):
        twin = Graph(8, {(i, j) for i in range(4) for j in range(i + 1, 4)}
                     | {(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)})
        with pytest.raises(ValueError, match="connected"):
            vc_to_czf_reduction(twin, 2)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="at least 1"):
            vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 0)

    def test_rejects_tampered_budget(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 3)
        with pytest.raises(ValueError, match="budget"):
            ReductionInstance(inst.h, inst.k + 1, inst.source, inst.blocks)

    def test_invariants_on_random_cubic(self):
        rng = random.Random(61)
        for n in (8, 10):
            for _ in range(5):
                g = random_cubic(rng, n)
                inst = vc_to_czf_reduction(g, 3)
                assert inst.h.n == 2 * g.n + 8 * g.m
                assert inst.k == 4 * g.m + g.n + 3


class TestCoverToStrategy:
    def test_k4_example(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 3)
        strat = cover_to_strategy(inst, {0, 1, 2})
        assert strat.searcher_count() == 31
        assert strat.is_normalized()
        state = cfms_run(inst.h, strat)
        assert state.success and state.ever_occupied == frozenset(range(inst.h.n))

    def test_prism_example(self):
        # No size-3 cover exists (each triangle needs two vertices and the
        # rungs force a fourth), so the smallest usable budget is 4.
        inst = vc_to_czf_reduction(PRISM, 4)
        strat = cover_to_strategy(inst, {1, 2, 3, 4})
        assert strat.searcher_count() == inst.k == 46

    def test_q3_example(self):
        inst = vc_to_czf_reduction(Q3, 4)
        strat = cover_to_strategy(inst, {0, 3, 5, 6})
        assert strat.searcher_count() == inst.k == 60

    def test_pads_small_cover(self):
        inst = vc_to_czf_reduction(K33, 5)
        strat = cover_to_strategy(inst, {0, 1, 2})
        assert strat.searcher_count() == inst.k == 47

    def test_budget_above_vertex_count(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 6)
        strat = cover_to_strategy(inst, {0, 1, 2})
        assert strat.searcher_count() == inst.k == 34

    def test_all_vertices_covered(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 4)
        strat = cover_to_strategy(inst, {0, 1, 2, 3})
        assert strat.searcher_count() == 32

    def test_rejects_non_cover(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 3)
        with pytest.raises(ValueError, match="uncovered"):
            cover_to_strategy(inst, {0})

    def test_rejects_foreign_vertices(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 3)
        with pytest.raises(ValueError, match="outside"):
            cover_to_strategy(inst, {0, 1, 2, 9})

    def test_rejects_oversized_cover(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 2)
        with pytest.raises(ValueError, match="budget"):
            cover_to_strategy(inst, {0, 1, 2})

    def test_random_cubic_covers(self):
        rng = random.Random(62)
        for n in (8, 10):
            for _ in range(4):
                g = random_cubic(rng, n)
                cover = greedy_cover(g)
                inst = vc_to_czf_reduction(g, len(cover))
                strat = cover_to_strategy(inst, cover)
                assert strat.searcher_count() == inst.k


class TestWriteReduction:
    def test_edge_list_roundtrip(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 3)
        text, _ = write_reduction(inst)
        assert parse_edge_list(text) == inst.h

    def test_sidecar_contents(self):
        inst = vc_to_czf_reduction(generate(FamilySpec("complete", 4)), 3)
        _, sidecar = write_reduction(inst)
        data = json.loads(sidecar)
        assert data["k"] == 31 and data["l"] == 3
        assert len(data["blocks"]) == 6
        assert data["blocks"]["0,1"] == [list(q) for q in inst.blocks[(0, 1)]]


class TestSubdivisionValue:
    def test_triangle(self):
        assert subdivision_value(generate(FamilySpec("cycle", 3))).value == 3

    def test_short_path(self):
        assert subdivision_value(generate(FamilySpec("path", 3))).value == 3

    def test_k4(self):
        result = subdivision_value(generate(FamilySpec("complete", 4)))
        assert result.value == 6
        assert czf_exact(subdivide_all(generate(FamilySpec("complete", 4)))).value == 6

    def test_single_vertex(self):
        assert subdivision_value(Graph(1, set())).value == 1

    def test_witness_replays(self):
        for g in (generate(FamilySpec("complete", 4)), generate(FamilySpec("star", 5)), PRISM):
            result = subdivision_value(g)
            gp = subdivide_all(g)
            assert len(result.witness) == result.value
            assert czf_run(gp, result.witness).colored == frozenset(range(gp.n))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            subdivision_value(Graph(3, {(0, 1)}))

    def test_matches_oracle_exhaustively(self):
        for n in range(1, 6):
            for g in connected_graphs(n, 14 - n):
                assert subdivision_value(g).value == czf_exact(subdivide_all(g)).value

    def test_middles_form_independent_set(self):
        for g in (PRISM, Q3, generate(FamilySpec("wheel", 6))):
            gp = subdivide_all(g)
            middles = [v for v, r in gp.roles.items() if r == "middle"]
            assert len(middles) == g.m
            assert not any(gp.has_edge(u, v) for u in middles for v in middles if u < v)


class TestSpectrumWitness:
    def test_low_end_is_cycle(self):
        assert spectrum_witness(6, 3) == generate(FamilySpec("cycle", 6))

    def test_high_end_is_complete(self):
        assert spectrum_witness(6, 5).m == 15

    def test_intermediate_certified(self):
        assert czf_exact(spectrum_witness(6, 4)).value == 4

    def test_full_sweep(self):
        for n in range(4, 9):
            for d in range((n + 1) // 2, n):
                assert czf_exact(spectrum_witness(n, d)).value == d

    def test_two_vertices(self):
        assert spectrum_witness(2, 1).m == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="ceil"):
            spectrum_witness(6, 2)
        with pytest.raises(ValueError, match="ceil"):
            spectrum_witness(6, 6)


class TestPerturbDelta:
    def test_star_add_leaf_edge(self):
        assert perturb_delta(generate(FamilySpec("star", 6)), (1, 2), "add") == -1

    def test_gadget_add_missing_clique_edge(self):
        assert perturb_delta(generate(FamilySpec("k4_minus_star", 2)), (2, 5), "add") == 1

    def test_matching_fill_in(self):
        assert perturb_delta(generate(FamilySpec("star_plus_matching", 4)), (1, 2), "add") == 0

    def test_remove_mode(self):
        assert perturb_delta(generate(FamilySpec("cycle", 4)), (0, 1), "remove") in (-1, 0, 1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            perturb_delta(generate(FamilySpec("path", 3)), (0, 1), "contract")

    def test_rejects_present_edge_on_add(self):
        with pytest.raises(ValueError, match="present"):
            perturb_delta(generate(FamilySpec("path", 3)), (0, 1), "add")

    def test_random_edits_stay_in_band(self):
        rng = random.Random(63)
        for _ in range(60):
            n = rng.randrange(3, 7)
            edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
            g = Graph(n, edges)
            present = g.sorted_edges()
            absent = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if not g.has_edge(i, j)
            ]
            if present and rng.random() < 0.5:
                assert perturb_delta(g, rng.choice(present), "remove") in (-1, 0, 1)
            elif absent:
                assert perturb_delta(g, rng.choice(absent), "add") in (-1, 0, 1)

    def test_out_of_band_edit_is_a_bug(self, monkeypatch):
        # An oracle whose value moves by two per edge breaks the invariant,
        # which must raise even when assertions are stripped.
        monkeypatch.setattr(constructions, "czf_exact", lambda g: SimpleNamespace(value=2 * g.m))
        with pytest.raises(RuntimeError, match="bug"):
            perturb_delta(generate(FamilySpec("path", 3)), (0, 2), "add")


class TestContractionProbe:
    def test_path_middle_edge(self):
        assert contraction_probe(generate(FamilySpec("path", 4)), (1, 2)) == (2, 2)

    def test_triangle(self):
        assert contraction_probe(generate(FamilySpec("cycle", 3)), (0, 1)) == (2, 1)

    def test_bridge_between_triangles(self):
        g = Graph(6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)})
        before, after = contraction_probe(g, (2, 3))
        assert after <= before

    def test_rejects_missing_edge(self):
        with pytest.raises(ValueError, match="not an edge"):
            contraction_probe(generate(FamilySpec("path", 3)), (0, 2))

    def test_random_contractions_bounded(self):
        rng = random.Random(64)
        for _ in range(40):
            n = rng.randrange(3, 7)
            edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6}
            g = Graph(n, edges)
            if not g.edges:
                continue
            before, after = contraction_probe(g, rng.choice(g.sorted_edges()))
            assert after <= before + 1


class TestMonotoneChain:
    def test_decrease_star_eight(self):
        chain = monotone_chain("decrease", 8)
        assert len(chain) == 4
        values = [czf_exact(g).value for g, _ in chain]
        assert values == [7, 6, 5, 4]
        assert [d for _, d in chain] == [0, -1, -1, -1]

    def test_increase_smallest(self):
        chain = monotone_chain("increase", 2)
        assert chain[0][0].n == 10
        assert [czf_exact(g).value for g, _ in chain] == [5, 6, 7]

    def test_increase_three_gadgets(self):
        chain = monotone_chain("increase", 3)
        assert [czf_exact(g).value for g, _ in chain] == [7, 8, 9, 10]

    def test_neutral_has_quadratic_length(self):
        chain = monotone_chain("neutral", 4)
        assert len(chain) == 13
        assert all(czf_exact(g).value == 4 for g, _ in chain)

    def test_neutral_small(self):
        chain = monotone_chain("neutral", 3)
        assert len(chain) == 1 + (3 - 1) * (3 * 3 - 4) // 2
        assert all(czf_exact(g).value == 3 for g, _ in chain)

    def test_base_carries_zero(self):
        for kind in ("decrease", "increase", "neutral"):
            assert monotone_chain(kind, 3)[0][1] == 0

    def test_degenerate_decrease(self):
        assert len(monotone_chain("decrease", 2)) == 1

    def test_rejects_small_m(self):
        with pytest.raises(ValueError, match="at least 2"):
            monotone_chain("neutral", 1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            monotone_chain("sideways", 3)
