"""Oracle agreement and frozen small-case values."""

import gc
import itertools
import random
import sys
import time
import tracemalloc
from math import comb
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onemove import exact
from onemove.deduction import Layout, run_deduction
from onemove.engines import cfms_run, complete_with_slides, czf_run
from onemove.exact import (
    ParameterResult,
    UniquenessWitness,
    cfms_exact,
    czf_exact,
    d_exact,
    mu_exact,
    validate_uniqueness_witness,
)
from onemove.graphs import (
    FamilySpec,
    Graph,
    adjacency_masks,
    connected_components,
    generate,
    induced_subgraph,
    parse_edge_list,
)
from independence import alpha_exact, vertex_cover_decide
from value_table import czf_value_table, pair_bit_index

WORKED = """7 11
0 1
1 2
3 4
4 5
0 3
1 4
2 5
1 3
5 6
1 6
0 2
"""


def worked_graph():
    return parse_edge_list(WORKED)


def random_graph(rng, n, p):
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return Graph(n, frozenset(edges))


class TestWorkedExample:
    def test_all_four_parameters(self):
        g = worked_graph()
        assert czf_exact(g).value == 4
        assert d_exact(g).value == 4
        assert cfms_exact(g).value == 4
        assert mu_exact(g).value == 3
        assert czf_exact(g).value == g.n - mu_exact(g).value

    def test_witnesses_replay(self):
        g = worked_graph()
        czf = czf_exact(g)
        from onemove.engines import czf_run

        assert czf_run(g, czf.witness).succeeded(g)

        dd = d_exact(g)
        assert len(run_deduction(g, dd.witness).protected) == g.n

        cf = cfms_exact(g)
        state = cfms_run(g, cf.witness)
        assert state.succeeded(g)
        assert state.ever_occupied == frozenset(range(g.n))

        mu = mu_exact(g)
        assert validate_uniqueness_witness(g, mu.witness)


class TestFrozenValues:
    def test_cycle6(self):
        g = generate(FamilySpec("cycle", 6))
        assert czf_exact(g).value == 3

    def test_complete5(self):
        g = generate(FamilySpec("complete", 5))
        assert czf_exact(g).value == 4

    def test_star5(self):
        g = generate(FamilySpec("star", 5))
        assert czf_exact(g).value == 4

    def test_wheel6(self):
        g = generate(FamilySpec("wheel", 6))
        assert czf_exact(g).value == 3

    def test_k4_minus_edge(self):
        g = Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}))
        assert czf_exact(g).value == 2

    def test_bowtie_matching(self):
        g = generate(FamilySpec("bowtie"))
        assert mu_exact(g).value == 2
        assert czf_exact(g).value == g.n - 2

    def test_path4_deduction(self):
        g = generate(FamilySpec("path", 4))
        assert d_exact(g).value == 2

    def test_single_vertex(self):
        g = Graph(1, frozenset())
        assert czf_exact(g).value == 1
        assert d_exact(g).value == 1
        assert cfms_exact(g).value == 1
        assert mu_exact(g).value == 0

    def test_k2_sliding(self):
        g = generate(FamilySpec("complete", 2))
        assert cfms_exact(g).value == 1

    def test_cycle4_matching(self):
        g = generate(FamilySpec("cycle", 4))
        assert mu_exact(g).value == 2

    def test_alpha(self):
        assert alpha_exact(generate(FamilySpec("cycle", 6))).value == 3
        assert alpha_exact(generate(FamilySpec("complete", 5))).value == 1

    def test_prism_cover(self):
        prism = Graph(
            6,
            frozenset(
                {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)}
            ),
        )
        assert alpha_exact(prism).value == 2
        ok, cover = vertex_cover_decide(prism, 3)
        assert not ok and cover is None
        ok, cover = vertex_cover_decide(prism, 4)
        assert ok and len(cover) == 4
        assert all(u in cover or v in cover for u, v in prism.edges)


class TestEquivalence:
    def test_random_sweep(self):
        rng = random.Random(31)
        for _ in range(80):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.9]))
            a = czf_exact(g).value
            b = d_exact(g).value
            c = cfms_exact(g).value
            assert a == b == c, f"disagreement on n={n} edges={sorted(g.edges)}"

    def test_matching_identity_connected(self):
        rng = random.Random(47)
        seen = 0
        from onemove.graphs import classify

        while seen < 40:
            n = rng.randint(2, 7)
            g = random_graph(rng, n, 0.5)
            if not classify(g).is_connected:
                continue
            seen += 1
            assert czf_exact(g).value == g.n - mu_exact(g).value


class TestWitnessValidation:
    def test_tampered_witness_rejected(self):
        g = generate(FamilySpec("cycle", 4))
        good = mu_exact(g).witness
        assert validate_uniqueness_witness(g, good)
        bad = UniquenessWitness(good.matching, good.v2, good.v1)
        # swapping sides wholesale keeps validity; swapping one endpoint breaks it
        assert validate_uniqueness_witness(g, bad)
        broken = UniquenessWitness(good.matching, good.v1, tuple(reversed(good.v2)))
        assert not validate_uniqueness_witness(g, broken)

    def test_non_unique_rejected(self):
        g = generate(FamilySpec("cycle", 4))
        w = UniquenessWitness(((0, 1), (2, 3)), (0, 2), (1, 3))
        assert not validate_uniqueness_witness(g, w)

    def test_non_edge_rejected(self):
        g = generate(FamilySpec("path", 4))
        w = UniquenessWitness(((0, 3),), (0,), (3,))
        assert not validate_uniqueness_witness(g, w)


class TestCeilings:
    def test_czf_refuses_large(self):
        g = Graph(25, frozenset({(i, i + 1) for i in range(24)}))
        with pytest.raises(ValueError, match="force=True"):
            czf_exact(g)

    def test_czf_forced_past_32_vertices(self, monkeypatch):
        # The sweep's rows are Python ints, so no mask width caps a forced
        # search; the ceiling still refuses K33 before any bitset is built.
        def no_bits(*args):
            raise AssertionError("a bitset was built before the refusal")

        g = Graph(33, frozenset((u, v) for u in range(33) for v in range(u + 1, 33)))
        with monkeypatch.context() as patch:
            patch.setattr(exact, "_member_bits", no_bits)
            with pytest.raises(ValueError, match="force=True"):
                czf_exact(g)
        res = czf_exact(g, force=True)
        assert res.value == 32
        assert czf_run(g, res.witness).succeeded(g)

    def test_czf_forced_search_is_not_recursive(self):
        # A forced component may have more vertices than the recursion
        # limit has frames, so no step recurses once per vertex: K150's
        # search must run within 60 frames of this one.
        g = generate(FamilySpec("complete", 150))
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            res = czf_exact(g, force=True)
        finally:
            sys.setrecursionlimit(limit)
        assert res.value == 149
        assert czf_run(g, res.witness).succeeded(g)

    def test_czf_ceiling_is_per_component(self):
        # Two disjoint K13: n = 26 is past the ceiling, each component is not.
        k13 = [(u, v) for u in range(13) for v in range(u + 1, 13)]
        g = Graph(26, frozenset(k13 + [(u + 13, v + 13) for u, v in k13]))
        res = czf_exact(g)
        assert res.value == 24
        assert czf_run(g, res.witness).succeeded(g)

    def test_czf_forced_limit_is_per_component(self):
        # Two 17-vertex paths: n = 34, searched one component at a time.
        g = Graph(34, frozenset((i, i + 1) for i in range(33) if i != 16))
        assert czf_exact(g, force=True).value == 18

    def test_mu_refuses_large(self):
        g = Graph(17, frozenset({(i, i + 1) for i in range(16)}))
        with pytest.raises(ValueError, match="force=True"):
            mu_exact(g)

    def test_d_and_cfms_refuse_before_any_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search started before the refusal")

        entry_points = (
            "adjacency_masks", "complete_with_slides", "_first_layout", "_layout_parts", "_layout_planes",
        )
        with monkeypatch.context() as patch:
            for name in entry_points:
                patch.setattr(exact, name, no_search)
            g = generate(FamilySpec("complete", exact.D_EXACT_CEILING + 1))
            with pytest.raises(ValueError, match="refused"):
                d_exact(g)
            g = generate(FamilySpec("complete", exact.CFMS_EXACT_CEILING + 1))
            with pytest.raises(ValueError, match="refused"):
                cfms_exact(g)
            with pytest.raises(ValueError, match="refused"):
                cfms_exact(g, frozenset({0}))
            g = generate(FamilySpec("path", 17))
            with pytest.raises(ValueError, match="d_exact refused"):
                d_exact(g)
        # The deduction sweep's rows are Python ints, so no mask width caps
        # a forced search.
        res = d_exact(g, force=True)
        assert res.value == 9
        assert len(run_deduction(g, res.witness).protected) == g.n

    def test_d_and_cfms_forced_past_ceiling(self):
        # The minimum-degree floor starts K_n's searches at n - 1.
        g = generate(FamilySpec("complete", exact.D_EXACT_CEILING + 2))
        assert d_exact(g, force=True).value == g.n - 1
        assert cfms_exact(g, force=True).value == g.n - 1

    @pytest.mark.parametrize("oracle", ["d_exact", "cfms_exact"])
    def test_budget_at_ceiling(self, oracle):
        # A star with its center last is among the slowest deduction
        # searches measured at n = 14: every total from 7 to 12 is swept in
        # full, and the first hit of total 13 is far into the enumeration.
        n = {"d_exact": exact.D_EXACT_CEILING, "cfms_exact": exact.CFMS_EXACT_CEILING}[oracle]
        g = Graph(n, frozenset((v, n - 1) for v in range(n - 1)))
        start = time.perf_counter()
        res = {"d_exact": d_exact, "cfms_exact": cfms_exact}[oracle](g)
        assert time.perf_counter() - start < 2.0
        assert res.value == n - 1


class TestVectorPath:
    def test_sweep_matches_scalar(self):
        # Every size class, against czf_run played on one start set at a
        # time in itertools.combinations order.
        rng = random.Random(7)
        for _ in range(15):
            g = random_graph(rng, 6, 0.45)
            for k in range(1, 7):
                first = next(
                    (
                        sum(1 << v for v in c)
                        for c in itertools.combinations(range(6), k)
                        if czf_run(g, c).succeeded(g)
                    ),
                    None,
                )
                assert exact._first_full(g.adjacency(), k, {}) == first, (g.edges, k)

    def test_masks_in_combinations_order(self):
        # Bit i of member bitset v is set when the i-th combination holds v.
        for n in range(15):
            tables = {}
            for k in range(n + 1):
                combos = list(itertools.combinations(range(n), k))
                expected = [sum(1 << i for i, c in enumerate(combos) if v in c) for v in range(n)]
                assert exact._member_bits(n, k, tables) == expected, (n, k)

    def test_sweep_returns_least_hit(self, monkeypatch):
        # The path 1-0-3-2 with two start vertices: {0, 1} fails, {0, 2}
        # is full only after a second round, while the later {0, 3}, {1, 2}
        # and {1, 3} are full after one.  The sweep must still return {0, 2}.
        g = Graph(4, frozenset({(0, 1), (0, 3), (2, 3)}))
        nbrs = adjacency_masks(g)
        masks = reference_combo_masks(4, 2)
        assert int(np.flatnonzero(reference_closure_sweep(nbrs, 4, masks) == 0b1111)[0]) == 1
        for chunk in (1, 2, 3, exact._SWEEP_CHUNK):
            monkeypatch.setattr(exact, "_SWEEP_CHUNK", chunk)
            assert exact._first_full(g.adjacency(), 2, {}) == masks[1] == 0b0101
            assert exact._first_full(g.adjacency(), 1, {}) is None

    def test_mask_chunks_concatenate_to_class(self):
        for n in range(15):
            for k in range(n + 1):
                expected = [sum(1 << v for v in c) for c in itertools.combinations(range(n), k)]
                for size in (1, 7, exact._SWEEP_CHUNK):
                    tables, rows = {}, []
                    for prefix, j, r in exact._mask_chunks(n, k, size):
                        count = comb(n - j, r)
                        assert prefix < 1 << j and 1 <= count <= size
                        bits = exact._member_bits(n - j, r, tables)
                        rows += [
                            prefix | sum(1 << (j + v) for v, b in enumerate(bits) if b >> i & 1)
                            for i in range(count)
                        ]
                    assert rows == expected, (n, k, size)


    def test_layout_rows_in_combinations_with_replacement_order(self):
        tables = {}
        for n in range(1, 11):
            for t in range(9):
                expected = []
                for spots in itertools.combinations_with_replacement(range(n), t):
                    row = [0] * n
                    for v in spots:
                        row[v] += 1
                    expected.append(row)
                for size in (1, 7, exact._SWEEP_CHUNK):
                    rows = []
                    for prefix, j, r in exact._layout_parts(n, t, size):
                        count = comb(n - j + r - 1, r)
                        assert 1 <= count <= size
                        assert sum(prefix) == t - r and not any(prefix[j + 1 :])
                        if (n - j, r) not in tables:
                            tables[n - j, r] = layout_rows(exact._layout_planes(n - j, r), count)
                        rows += [[a + b for a, b in zip(prefix, [0] * j + row)] for row in tables[n - j, r]]
                    assert rows == expected, (n, t, size)

    def test_layout_tables_stay_small_and_read_only(self):
        for n in range(1, 11):
            d_exact(random_graph(random.Random(n), n, 0.4))
        assert exact._LAYOUT_PLANES
        for (m, t), planes in exact._LAYOUT_PLANES.items():
            count = comb(m + t - 1, t)
            assert count <= exact._SWEEP_CHUNK, (m, t)
            assert type(planes) is tuple and len(planes) == m, (m, t)
            for plane in planes:
                assert type(plane) is tuple and len(plane) == t, (m, t)
                assert all(0 < bits < 1 << count for bits in plane), (m, t)

    def test_d_exact_forgets_its_call_history(self, monkeypatch):
        # Tables shared across calls must not carry one graph's search
        # into the next: the same graphs, run forwards from empty tables
        # and then backwards over the tables the first run left, agree.
        monkeypatch.setattr(exact, "_LAYOUT_PLANES", {})
        rng = random.Random(12)
        graphs = [random_graph(rng, rng.randint(1, 11), rng.choice([0.2, 0.45, 0.7])) for _ in range(40)]
        forwards = [d_exact(g) for g in graphs]
        backwards = [d_exact(g) for g in reversed(graphs)]
        assert forwards == backwards[::-1]

    def test_layout_sweep_returns_least_hit(self, monkeypatch):
        # The path 3-0-2-1 with two searchers: {0, 1} protects everything
        # only in a second round (1 fires, then 0), while the later {0, 2}
        # does in the first.  The sweep must still return {0, 1}.
        g = Graph(4, frozenset({(0, 2), (0, 3), (1, 2)}))
        for chunk in (1, 2, 3, exact._SWEEP_CHUNK):
            monkeypatch.setattr(exact, "_SWEEP_CHUNK", chunk)
            assert exact._first_layout(g.adjacency(), 2) == [1, 1, 0, 0]
            assert d_exact(g).witness == Layout({0: 1, 1: 1})
            assert exact._first_layout(g.adjacency(), 1) is None


class TestValueTable:
    def test_small_entries(self):
        t3 = czf_value_table(3)
        bits = pair_bit_index(3)
        assert t3[0] == 3
        assert t3[1 << bits[(0, 1)]] == 2
        assert t3[(1 << bits[(0, 1)]) | (1 << bits[(1, 2)])] == 2
        assert t3[(1 << len(bits)) - 1] == 2

    def test_table_matches_oracle(self):
        rng = random.Random(11)
        for n in (2, 3, 4, 5):
            table = czf_value_table(n)
            bits = pair_bit_index(n)
            for _ in range(25):
                mask = rng.randrange(len(table))
                edges = frozenset(p for p, b in bits.items() if mask >> b & 1)
                g = Graph(n, edges)
                assert table[mask] == czf_exact(g).value

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            czf_value_table(8)
        with pytest.raises(ValueError):
            czf_value_table(0)


class TestPreoccupied:
    def test_triangle_with_free_searcher(self):
        g = generate(FamilySpec("complete", 3))
        res = cfms_exact(g, preoccupied=frozenset({0}))
        assert res.value == 1
        state = cfms_run(g, res.witness, preoccupied=frozenset({0}))
        assert state.succeeded(g)

    def test_fully_preoccupied_path(self):
        g = generate(FamilySpec("path", 2))
        res = cfms_exact(g, preoccupied=frozenset({0, 1}))
        assert res.value == 0

    def test_out_of_range_rejected(self):
        # The search itself never meets the stray vertex, so it is refused
        # up front instead of every placement set failing.
        with pytest.raises(ValueError, match="out of range"):
            cfms_exact(generate(FamilySpec("path", 3)), preoccupied=frozenset({0, 3}))


def test_parameter_result_shape():
    g = generate(FamilySpec("path", 3))
    res = czf_exact(g)
    assert isinstance(res, ParameterResult)
    assert res.method == "exact"
    assert isinstance(res.witness, list)


# ---------------------------------------------------------------------------
# Reference oracles: the plain exhaustive searches the fast oracles replace.
# ---------------------------------------------------------------------------


def reference_mu(g):
    """Largest matching with the uniqueness property: every matching by
    descending size, every side flip, perfect matchings counted by brute
    force over permutations."""
    edges = g.sorted_edges()
    for s in range(len(edges) and g.n // 2, 0, -1):
        for matching in itertools.combinations(edges, s):
            if len({v for e in matching for v in e}) < 2 * s:
                continue
            for flips in itertools.product((False, True), repeat=s - 1):
                v1 = [matching[0][0]] + [e[1] if f else e[0] for e, f in zip(matching[1:], flips)]
                v2 = [matching[0][1]] + [e[0] if f else e[1] for e, f in zip(matching[1:], flips)]
                perfect = sum(
                    all(g.has_edge(v1[i], v2[j]) for i, j in enumerate(perm))
                    for perm in itertools.permutations(range(s))
                )
                if perfect == 1:
                    return s
    return 0


def reference_d(g):
    """Deduction number with one run_deduction game per layout, totals from 1."""
    if g.n == 0:
        return ParameterResult(0, Layout({}), "exact")
    for total in range(1, g.n + 1):
        for spots in itertools.combinations_with_replacement(range(g.n), total):
            counts = {}
            for v in spots:
                counts[v] = counts.get(v, 0) + 1
            layout = Layout(counts)
            if len(run_deduction(g, layout).protected) == g.n:
                return ParameterResult(total, layout, "exact")
    raise AssertionError("placing a searcher on every vertex always succeeds")


def reference_cfms(g, pre=frozenset()):
    """Sliding search number, trying placement sets from size 0 upward."""
    free = sorted(set(range(g.n)) - pre)
    for s in range(len(free) + 1):
        for combo in itertools.combinations(free, s):
            strategy = complete_with_slides(g, combo, preoccupied=pre)
            state = cfms_run(g, strategy, preoccupied=pre)
            if state.succeeded(g):
                return ParameterResult(s, strategy, "exact")
    raise AssertionError("placing searchers everywhere always clears the graph")


def part_planes(n, prefix, j, r):
    """Count planes of one _layout_parts part: entry k-1 of vertex v's
    tuple has bit i set when row i holds at least k searchers on v."""
    ones = (1 << comb(n - j + r - 1, r)) - 1
    planes = exact._layout_planes(n - j, r)
    return [(ones,) * c + (planes[v - j] if v >= j else ()) for v, c in enumerate(prefix)]


def layout_rows(ge, count):
    """The count rows that planes ge encode, one list per row."""

    def row_bits(bits):
        raw = np.frombuffer(bits.to_bytes((count + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[:count].astype(np.int64)

    counts = [sum((row_bits(bits) for bits in need), np.zeros(count, np.int64)) for need in ge]
    return np.array(counts, dtype=np.int64).reshape(len(ge), count).T.tolist()


def reference_combo_masks(n, k):
    """Every k-subset mask, one Python sum per combination."""
    gen = (sum(1 << v for v in combo) for combo in itertools.combinations(range(n), k))
    return np.fromiter(gen, dtype=np.uint32, count=comb(n, k))


def reference_closure_sweep(nbrs, n, masks):
    """Forcing closure of every initial mask, swept until all settle."""
    full = np.uint32((1 << n) - 1)
    colored = masks.copy()
    fired = np.zeros_like(masks)
    one = np.uint32(1)
    while True:
        changed = False
        for v in range(n):
            bit = np.uint32(1 << v)
            nb = np.uint32(nbrs[v])
            unc = nb & ~colored
            can = ((masks & bit) != 0) & ((fired & bit) == 0)
            single = (unc != 0) & ((unc & (unc - one)) == 0)
            do = can & single
            if do.any():
                colored[do] |= unc[do]
                fired[do] |= bit
                changed = True
        if not changed or bool((colored == full).all()):
            return colored


def reference_min_forcing_set(nbrs, n, lower):
    """(size, mask) of the first full closure over every mask of each size."""
    for k in range(max(lower, 1), n + 1):
        masks = reference_combo_masks(n, k)
        hits = np.flatnonzero(reference_closure_sweep(nbrs, n, masks) == (1 << n) - 1)
        if hits.size:
            return k, int(masks[hits[0]])
    raise AssertionError("the full vertex set always forces itself")


@st.composite
def forcing_graphs(draw, sizes=st.integers(1, 16)):
    """A graph whose vertex count sizes draws (1 to 16 by default), sparse or dense."""
    n = draw(sizes)
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_graph(random.Random(seed), n, p)


@st.composite
def small_graphs(draw):
    """A graph on up to 8 vertices and a preoccupied set."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    pre = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return Graph(n, frozenset(edges)), frozenset(pre)


class TestAgainstReferences:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_mu_matches_enumeration(self, inst):
        g, _ = inst
        res = mu_exact(g)
        assert res.value == reference_mu(g)
        assert validate_uniqueness_witness(g, res.witness)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_d_matches_game_per_layout(self, inst):
        g, _ = inst
        assert d_exact(g) == reference_d(g)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_cfms_matches_search_from_zero(self, inst):
        g, pre = inst
        assert cfms_exact(g) == reference_cfms(g)
        assert cfms_exact(g, pre) == reference_cfms(g, pre)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    @example((Graph(5, frozenset()), frozenset({1, 3})))
    @example((Graph(6, frozenset({(0, 1), (1, 2), (0, 2), (3, 4)})), frozenset({0})))
    def test_sliding_step_plays_the_engines(self, inst):
        # On every placement set, not only the first hit: the bitset step
        # and the engines' greedy completion agree on success.
        g, pre = inst
        nbrs, full = adjacency_masks(g), (1 << g.n) - 1
        held = sum(1 << v for v in pre)
        free = sorted(set(range(g.n)) - pre)
        for s in range(len(free) + 1):
            for combo in itertools.combinations(free, s):
                state = cfms_run(g, complete_with_slides(g, combo, pre), pre)
                mask = held | sum(1 << v for v in combo)
                assert exact._slides_clear(nbrs, full, mask) == state.succeeded(g), combo

    @settings(max_examples=100, deadline=None)
    @given(g=forcing_graphs(st.integers(1, 6)))
    def test_stage_round_plays_the_game(self, g):
        # On every layout of every total, not only the first hit: rounds
        # played on one row at a time, to a fixpoint, protect what
        # run_deduction protects, and the row is a hit exactly when that
        # is every vertex.
        adj = g.adjacency()
        for total in range(1, g.n + 1):
            for prefix, j, r in exact._layout_parts(g.n, total, exact._SWEEP_CHUNK):
                count = comb(g.n - j + r - 1, r)
                ge = part_planes(g.n, prefix, j, r)
                for i, row in enumerate(layout_rows(ge, count)):
                    unprotected = [(1 << count) - 1 & ~need[0] if need else (1 << count) - 1 for need in ge]
                    hit = exact._least_protecting_row(adj, ge, unprotected, 1 << i)
                    state = run_deduction(g, Layout({v: c for v, c in enumerate(row) if c}))
                    assert {v for v, u in enumerate(unprotected) if not u >> i & 1} == state.protected, row
                    assert (hit == i) == (len(state.protected) == g.n), row


class TestForcingSearch:
    @pytest.mark.parametrize(
        "chunk", [exact._SWEEP_CHUNK, 1, 64], ids=["default", "parts-of-1", "parts-of-64"]
    )
    @settings(max_examples=100, deadline=None)
    @given(g=forcing_graphs())
    def test_matches_reference_sweep(self, chunk, g):
        nbrs = adjacency_masks(g)
        lower = (g.n + 1) // 2
        with mock.patch.object(exact, "_SWEEP_CHUNK", chunk):
            assert exact._min_forcing_set(g.adjacency(), lower) == reference_min_forcing_set(
                nbrs, g.n, lower
            )

    def test_ceiling_budget(self):
        # G(24, 0.3) has value 12 = ceil(24/2): one size class of C(24, 12)
        # start sets, the largest the ceiling admits.  The class is swept
        # in parts, so memory stays far below one bit per vertex and start
        # set for the whole class.
        g = random_graph(random.Random(3), 24, 0.3)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            res = czf_exact(g)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == 12
        assert czf_run(g, res.witness).succeeded(g)
        assert elapsed < 2.0
        assert peak < 8 * 2**20


@st.composite
def edited_graphs(draw):
    """A graph on 8 to 12 vertices, and the same graph with one vertex pair
    toggled between edge and non-edge."""
    g = draw(forcing_graphs(st.integers(8, 12)))
    u, v = sorted(draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True)))
    return g, Graph(g.n, g.edges ^ {(u, v)})


class TestEdgeEdits:
    # test_06 in test_acceptance checks every labeled graph on n <= 6.
    @settings(max_examples=200, deadline=None)
    @given(inst=edited_graphs())
    def test_one_edge_moves_czf_by_at_most_one(self, inst):
        g, h = inst
        assert abs(czf_exact(g).value - czf_exact(h).value) <= 1


class TestDeductionSearch:
    # Small graphs reach the smallest totals, down to a single layout;
    # reference_d plays every layout in Python, so n stops at 7.
    @pytest.mark.parametrize("chunk", [exact._SWEEP_CHUNK, 8], ids=["default", "parts-of-8"])
    @settings(max_examples=100, deadline=None)
    @given(g=forcing_graphs(st.integers(1, 7)))
    def test_matches_game_per_layout(self, chunk, g):
        with mock.patch.object(exact, "_SWEEP_CHUNK", chunk):
            assert d_exact(g) == reference_d(g)


class TestMinDegreeFloor:
    @settings(max_examples=100, deadline=None)
    @given(g=forcing_graphs())
    def test_czf_matches_search_from_one(self, g):
        # reference_min_forcing_set tries every size from 1 on each component.
        size, witness = 0, []
        for comp in connected_components(g):
            sub, relabel = induced_subgraph(g, comp)
            back = {new: old for old, new in relabel.items()}
            k, mask = reference_min_forcing_set(adjacency_masks(sub), sub.n, 1)
            size += k
            witness.extend(back[v] for v in range(sub.n) if mask >> v & 1)
        assert czf_exact(g) == ParameterResult(size, sorted(witness), "exact")

    def test_searches_start_at_min_degree(self, count_calls):
        # K6 has ceil(6/2) = 3 but minimum degree 5.
        g = generate(FamilySpec("complete", 6))
        classes = count_calls(exact._first_full)
        sweeps = count_calls(exact._first_layout)
        slides = count_calls(exact._slides_clear)
        completions = count_calls(complete_with_slides)
        assert czf_exact(g).value == d_exact(g).value == cfms_exact(g).value == 5
        assert min(args[1] for args in classes) == 5
        assert min(args[1] for args in sweeps) == 5
        assert min(args[2].bit_count() for args in slides) == 5
        assert min(len(args[1]) for args in completions) == 5


class TestOracleCost:
    def test_no_cyclic_garbage(self):
        g = random_graph(random.Random(3), 10, 0.4)
        witness = mu_exact(g).witness
        calls = {
            "czf_exact": lambda: czf_exact(g),
            "d_exact": lambda: d_exact(g),
            "cfms_exact": lambda: cfms_exact(g),
            "mu_exact": lambda: mu_exact(g),
            "validate_uniqueness_witness": lambda: validate_uniqueness_witness(g, witness),
        }
        for name, call in calls.items():
            gc.collect()
            gc.disable()
            try:
                call()
                assert gc.collect() == 0, f"{name} left cyclic garbage"
            finally:
                gc.enable()

    def test_d_exact_plays_one_game(self, count_calls):
        games = count_calls(run_deduction)
        assert d_exact(worked_graph()).value == 4
        assert len(games) == 1

    def test_cfms_search_starts_at_half(self, count_calls):
        slides = count_calls(exact._slides_clear)
        completions = count_calls(complete_with_slides)
        assert cfms_exact(generate(FamilySpec("cycle", 6))).value == 3
        assert slides
        assert min(args[2].bit_count() for args in slides) >= 3
        assert min(len(args[1]) for args in completions) >= 3

    @pytest.mark.parametrize(
        "g, pre",
        [
            (worked_graph(), frozenset()),
            (generate(FamilySpec("cycle", 6)), frozenset({0, 2})),
            (Graph(7, frozenset((v, 6) for v in range(6))), frozenset()),
        ],
        ids=["worked", "C6-preoccupied", "star"],
    )
    def test_cfms_replays_only_the_winner(self, count_calls, g, pre):
        # The first placement set fails on C6 and on the star (center
        # last), so replaying each candidate would run the engines again.
        completions = count_calls(complete_with_slides)
        runs = count_calls(cfms_run)
        res = cfms_exact(g, pre)
        assert (len(completions), len(runs)) == (1, 1)
        assert cfms_run(g, res.witness, pre).succeeded(g)

    def test_cfms_replay_failure_raises(self, monkeypatch):
        failed = SimpleNamespace(succeeded=lambda g: False)
        monkeypatch.setattr(exact, "cfms_run", lambda *args, **kwargs: failed)
        with pytest.raises(RuntimeError, match="bug"):
            cfms_exact(worked_graph())

    @pytest.mark.parametrize(
        "g",
        [generate(FamilySpec("complete", 16)), random_graph(random.Random(16), 16, 0.5)],
        ids=["K16", "gnp16-half"],
    )
    def test_mu_budget(self, g):
        start = time.perf_counter()
        res = mu_exact(g)
        assert time.perf_counter() - start < 2.0
        assert validate_uniqueness_witness(g, res.witness)
