"""Cactus solver with pre-occupied searchers: rules, traces, oracle sweeps."""

import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onemove import cactus, engines, graphs
from onemove.cactus import (
    CactusInstance,
    cactus_solve,
    parse_cactus_instance,
    write_cactus_instance,
)
from onemove.engines import cfms_run, complete_with_slides
from onemove.exact import cfms_exact, czf_exact
from onemove.graphs import FamilySpec, Graph, classify, edge_key, generate, induced_subgraph
from onemove.solver import solve


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_cactus(rng, n):
    edges = set()
    used = 1
    while used < n:
        anchor = rng.randrange(used)
        room = n - used
        if room >= 2 and rng.random() < 0.45:
            k = rng.randint(2, min(room, 5))
            cyc = [anchor] + list(range(used, used + k))
            for i in range(len(cyc)):
                a, b = cyc[i], cyc[(i + 1) % len(cyc)]
                edges.add((min(a, b), max(a, b)))
            used += k
        else:
            edges.add((anchor, used))
            used += 1
    return Graph(n, edges)


def solve_pre(g, pre=frozenset()):
    """The cactus core's value and strategy for g with pre occupied."""
    plan = cactus_solve(CactusInstance(g, frozenset(pre)))
    return plan.value, plan.witness


def plan_clears(g, plan, pre):
    state = cfms_run(g, plan.witness, preoccupied=pre)
    return state.succeeded(g)


def pinned_ring_clears(occupied):
    """Whether the occupied positions clear their ring when the searcher at
    position 0 may not slide: the engine's clearing rule, sliding the
    lowest ready searcher until none is ready."""
    ring = len(occupied)
    run = engines.Clearing(cycle_graph(ring))
    for i, p in enumerate(p for p in range(ring) if occupied[p]):
        run.place(p, i)
    while True:
        cleared = run.cleared_edges
        ready = [u for u in sorted(run.occupied - run.moved) if u != 0 and run.contaminated[u] == 1]
        if not ready:
            return len(cleared) == ring
        u = ready[0]
        (v,) = [w for w in run.adj[u] if edge_key(u, w) not in cleared]
        run.slide(u, v, 0)


class TestInstance:
    def test_rejects_non_cactus(self):
        g = generate(FamilySpec("complete", 4))
        with pytest.raises(ValueError, match="cactus"):
            CactusInstance(g)

    def test_rejects_out_of_range_preoccupied(self):
        with pytest.raises(ValueError):
            CactusInstance(path_graph(3), frozenset({5}))

    def test_accepts_disconnected_cactus(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        CactusInstance(g, frozenset({0}))


class TestPathSolve:
    def test_edge_needs_one(self):
        value, _ = solve_pre(path_graph(2))
        assert value == 1

    def test_middle_preoccupied_needs_one(self):
        value, _ = solve_pre(path_graph(3), {1})
        assert value == 1

    def test_both_preoccupied_needs_none(self):
        value, _ = solve_pre(path_graph(2), {0, 1})
        assert value == 0

    def test_exhaustive_small_paths(self):
        for n in range(1, 8):
            g = path_graph(n)
            for r in range(n + 1):
                for pre in itertools.combinations(range(n), r):
                    pre = frozenset(pre)
                    value, strategy = solve_pre(g, pre)
                    assert value == cfms_exact(g, preoccupied=pre).value
                    state = cfms_run(g, strategy, preoccupied=pre)
                    assert state.succeeded(g)

    def test_disjoint_paths_sum(self):
        g = Graph(5, [(0, 1), (3, 4)])
        value, _ = solve_pre(g, {3})
        assert value == cfms_exact(g, preoccupied=frozenset({3})).value


class TestCycleSolve:
    def test_hexagon_without_preoccupied(self):
        value, _ = solve_pre(cycle_graph(6))
        assert value == 3

    def test_triangle_one_preoccupied(self):
        value, _ = solve_pre(cycle_graph(3), {0})
        assert value == 1

    def test_adjacent_pair_matches_path(self):
        value, _ = solve_pre(cycle_graph(4), {0, 1})
        path_value, _ = solve_pre(
            Graph(4, [(1, 2), (2, 3), (0, 3)]), {0, 1})
        assert value == path_value == 0

    def test_opposite_pair_needs_one(self):
        # With searchers only on two opposite vertices, each faces two
        # contaminated edges and nobody may slide first; one extra searcher
        # next to either breaks the standoff.
        value, strategy = solve_pre(cycle_graph(4), {1, 3})
        assert value == 1
        g = cycle_graph(4)
        assert cfms_run(g, strategy, preoccupied=frozenset({1, 3})).succeeded(g)

    def test_long_cycle_within_budget(self):
        # Copying each scan state's choices at every ring position made
        # the ring scan quadratic: 3.4 s at 8,000 vertices.
        n = 20_000
        start = time.perf_counter()
        value, _ = solve_pre(cycle_graph(n), frozenset(range(0, n, 5)))
        assert time.perf_counter() - start < 2.0
        assert value == 3 * n // 10

    @pytest.mark.parametrize("ring", range(3, 13))
    def test_case_a_iff_pinned_clearing(self, ring):
        # Every pattern with position 0 occupied: the pinned ring scan
        # costs nothing more iff the engine clears the ring with position
        # 0 held still, and the cycle's label is "a" iff its chosen set
        # does so.
        rotation = tuple(range(ring))
        for bits in range(1 << (ring - 1)):
            occupied = [True] + [bool(bits >> i & 1) for i in range(ring - 1)]
            scan = cactus._ring_scan(occupied, 0, False)
            assert (scan is not None and scan[0] == 0) == pinned_ring_clears(occupied)
            if any(occupied[p] and occupied[p - 1] for p in rotation):
                continue
            pre = frozenset(p for p in rotation if occupied[p])
            places, label = cactus._cycle_places(pre, rotation)
            chosen = [p in pre or p in places for p in rotation]
            assert (label == "a") == pinned_ring_clears(chosen)

    def test_exhaustive_small_cycles(self):
        for n in range(3, 8):
            g = cycle_graph(n)
            for r in range(n + 1):
                for pre in itertools.combinations(range(n), r):
                    pre = frozenset(pre)
                    value, strategy = solve_pre(g, pre)
                    assert value == cfms_exact(g, preoccupied=pre).value
                    state = cfms_run(g, strategy, preoccupied=pre)
                    assert state.succeeded(g)


class TestCactusSolve:
    def test_bowtie(self):
        plan = cactus_solve(CactusInstance(generate(FamilySpec("bowtie", 5))))
        assert plan.value == 3
        assert plan.trace == (
            "step5.3 cycle=(0,1,2) extender=2 path=1 cycle=2",
            "isolated-cycle (2,3,4) case=none adds=2",
        )

    def test_square_with_leaf(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
        plan = cactus_solve(CactusInstance(g))
        assert plan.value == 3
        assert plan.trace == (
            "step1 v=4 u=0",
            "step1 v=1 u=2",
            "isolated v=3 placed",
        )

    def test_two_squares_with_leaf(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5),
                      (5, 6), (0, 6), (0, 7)])
        plan = cactus_solve(CactusInstance(g))
        assert plan.value == czf_exact(g).value == 5

    def test_shared_vertex_squares_with_preoccupied(self):
        # A square and a pentagon sharing vertex 0; the square's interior
        # pair {1,3} cannot clear the square alone even though the path
        # they span needs nothing, so two extra searchers are required.
        g = Graph(9, [(0, 1), (0, 3), (0, 4), (0, 8), (1, 2), (2, 3),
                      (4, 5), (5, 6), (6, 7), (7, 8)])
        pre = frozenset({1, 3, 6})
        plan = cactus_solve(CactusInstance(g, pre))
        assert plan.value == 2
        assert plan_clears(g, plan, pre)

    def test_classifies_once(self, monkeypatch):
        # a triangle with a triangle hung on each corner: three leaf cycles
        g = Graph(9, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4),
                      (1, 5), (5, 6), (1, 6), (2, 7), (7, 8), (2, 8)])
        # the instance's check computes the shape; the solver reads it back
        calls = []
        original = graphs._classify

        def counted(h):
            calls.append(h.n)
            return original(h)

        monkeypatch.setattr(graphs, "_classify", counted)
        plan = cactus_solve(CactusInstance(g))
        assert plan_clears(g, plan, frozenset())
        assert calls == [g.n]

    @pytest.mark.parametrize(
        "g, pre",
        [
            (generate(FamilySpec("bowtie")), frozenset()),
            (generate(FamilySpec("bowtie")), frozenset({0, 3})),
            (path_graph(6), frozenset()),
            (cycle_graph(5), frozenset()),
            (generate(FamilySpec("complete", 4)), frozenset()),
        ],
    )
    def test_solve_classifies_each_graph_once(self, monkeypatch, g, pre):
        # router, CactusInstance and solver all read one classification
        calls = []
        original = graphs._classify

        def counted(h):
            calls.append(h)
            return original(h)

        monkeypatch.setattr(graphs, "_classify", counted)
        solve(g, pre)
        assert calls == [g]

    def test_chain_of_triangles_within_budget(self):
        # 5,000 triangles in a row, each sharing a vertex with the next:
        # filtering every cycle and scanning the whole graph in each round
        # took about 9 s at 4,001 vertices on a 2-CPU Xeon machine.
        def chain(n):
            return Graph(n, [e for i in range(0, n - 1, 2)
                             for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))])

        for n in (3, 5, 7, 9):
            g = chain(n)
            assert cactus_solve(CactusInstance(g)).value == czf_exact(g).value
            assert czf_exact(g).value == n // 2 + 1
        n = 10_001
        inst = CactusInstance(chain(n))
        start = time.perf_counter()
        plan = cactus_solve(inst)
        assert time.perf_counter() - start < 3.0
        assert plan.value == n // 2 + 1

    def test_long_tail_within_budget(self):
        # A pentagon with a path to 20,000 vertices: rescanning the residual
        # for the next leaf after every deletion took about 5 s here.
        n = 20_000
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)]
        edges += [(v, v + 1) for v in range(5, n - 1)]
        inst = CactusInstance(Graph(n, edges))
        start = time.perf_counter()
        plan = cactus_solve(inst)
        assert time.perf_counter() - start < 2.0
        assert plan.value == n // 2

    def test_trace_shape(self):
        pattern = re.compile(
            r"^(step[1-4] v=\d+ u=\d+"
            r"|isolated v=\d+ (preoccupied|placed)"
            r"|isolated-cycle \(\d+(,\d+)*\) case=(none|adjacent|a|b|c) adds=\d+"
            r"|step5\.[1-4] cycle=\(\d+(,\d+)*\) extender=\d+ path=\d+ cycle=\d+"
            r"( case=(none|adjacent|a|b|c))?)$")
        rng = random.Random(50)
        for _ in range(40):
            g = random_cactus(rng, rng.randint(1, 10))
            pre = frozenset(v for v in range(g.n) if rng.random() < 0.3)
            plan = cactus_solve(CactusInstance(g, pre))
            for line in plan.trace:
                assert pattern.match(line), line
            assert plan_clears(g, plan, pre)

    def test_empty_graph(self):
        plan = cactus_solve(CactusInstance(Graph(0, [])))
        assert plan.value == 0
        assert plan.trace == ()

    def test_isolated_vertices(self):
        plan = cactus_solve(CactusInstance(Graph(2, []), frozenset({0})))
        assert plan.value == 1
        assert plan.trace == ("isolated v=0 preoccupied", "isolated v=1 placed")

    def test_matches_czf_without_preoccupied(self):
        rng = random.Random(51)
        for _ in range(60):
            g = random_cactus(rng, rng.randint(1, 12))
            plan = cactus_solve(CactusInstance(g))
            assert plan.value == czf_exact(g).value
            assert plan_clears(g, plan, frozenset())

    def test_matches_extended_oracle_with_preoccupied(self):
        rng = random.Random(52)
        for _ in range(50):
            g = random_cactus(rng, rng.randint(1, 9))
            pre = frozenset(v for v in range(g.n) if rng.random() < 0.35)
            plan = cactus_solve(CactusInstance(g, pre))
            assert plan.value == cfms_exact(g, preoccupied=pre).value
            assert plan_clears(g, plan, pre)

    def test_disconnected_instances(self):
        rng = random.Random(53)
        for _ in range(25):
            a = random_cactus(rng, rng.randint(1, 5))
            b = random_cactus(rng, rng.randint(1, 5))
            edges = set(a.edges) | {(u + a.n, v + a.n) for u, v in b.edges}
            g = Graph(a.n + b.n, edges)
            pre = frozenset(v for v in range(g.n) if rng.random() < 0.3)
            plan = cactus_solve(CactusInstance(g, pre))
            assert plan.value == cfms_exact(g, preoccupied=pre).value
            assert plan_clears(g, plan, pre)


def rescanning_cactus_solve(inst):
    """Reference schedule: after each round, every live vertex is rescanned
    for leaves and isolated vertices and every cycle for whether it is
    still whole, isolated or a leaf cycle; subproblems are induced
    subgraphs of the whole graph.  Returns the trace and the placements."""
    g = inst.graph
    adj = {v: set(ws) for v, ws in enumerate(g.adjacency())}
    pre = set(inst.preoccupied)
    places, trace = [], []
    cycles = classify(g).cycles
    while adj:
        cactus._resolve_leaves(adj, pre, places, trace, set(adj))
        if not adj:
            break
        cycles = [cyc for cyc in cycles if all(w in adj for w in cyc)]
        isolated = sorted(cyc for cyc in cycles if all(len(adj[w]) == 2 for w in cyc))
        for cyc in isolated:
            _, rel = induced_subgraph(g, cyc)
            pl, label = cactus._cycle_places(
                frozenset(rel[w] for w in cyc if w in pre), tuple(rel[w] for w in cyc)
            )
            places.extend(sorted(rel)[x] for x in pl)
            trace.append(f"isolated-cycle ({','.join(map(str, cyc))}) case={label} adds={len(pl)}")
            graphs.delete_vertices(adj, pre, cyc)
        if isolated:
            continue
        v, cyc = min(
            (branching[0], cyc)
            for cyc in cycles
            if len(branching := [w for w in cyc if len(adj[w]) >= 3]) == 1
        )
        at = cyc.index(v)
        path = cyc[at + 1 :] + cyc[:at]
        _, rel_p = induced_subgraph(g, path)
        pl_p = cactus._path_places(
            tuple(rel_p[w] for w in path), frozenset(rel_p[w] for w in path if w in pre)
        )
        _, rel_c = induced_subgraph(g, cyc)
        pl_c, label = cactus._cycle_places(
            frozenset(rel_c[w] for w in cyc if w in pre), tuple(rel_c[w] for w in cyc)
        )
        cf_p, cf_c = len(pl_p), len(pl_c)
        clear_path = cf_p == cf_c if v in pre else cf_c == cf_p + 1
        case = ("5.1" if clear_path else "5.2") if v in pre else ("5.3" if clear_path else "5.4")
        cycle = ",".join(map(str, cyc))
        listing = f"step{case} cycle=({cycle}) extender={v} path={cf_p} cycle={cf_c}"
        if clear_path:
            places.extend(sorted(rel_p)[x] for x in pl_p)
            trace.append(listing)
            graphs.delete_vertices(adj, pre, path)
        else:
            places.extend(sorted(rel_c)[x] for x in pl_c)
            trace.append(f"{listing} case={label}")
            graphs.delete_vertices(adj, pre, cyc)
    return tuple(trace), places


@st.composite
def cactus_forests(draw):
    """A cactus forest on up to 30 vertices under a random relabeling, with
    a random preoccupied set."""
    n = draw(st.integers(1, 30))
    edges = set()
    v = 1
    while v < n:
        if draw(st.integers(0, 5)) == 0:
            v += 1  # v roots a new component
            continue
        anchor = draw(st.integers(0, v - 1))
        size = draw(st.integers(1, min(n - v, 6)))
        if size == 1:
            edges.add((anchor, v))
        else:
            ring = [anchor, *range(v, v + size)]
            edges |= {(ring[i - 1], ring[i]) for i in range(len(ring))}
        v += size
    perm = draw(st.permutations(range(n)))
    pre = draw(st.sets(st.integers(0, n - 1)))
    return Graph(n, frozenset(edge_key(perm[a], perm[b]) for a, b in edges)), frozenset(pre)


@st.composite
def held_paths(draw):
    """A path on up to 12 vertices through a random vertex order, with a
    random preoccupied set."""
    n = draw(st.integers(1, 12))
    return tuple(draw(st.permutations(range(n)))), frozenset(draw(st.sets(st.integers(0, n - 1))))


class TestPathPlaces:
    @settings(max_examples=300, deadline=None)
    @given(held_paths())
    def test_length_is_the_sliding_optimum(self, case):
        # The peel's placements on the path through order are as few as
        # the exhaustive sliding search's.
        order, pre = case
        g = Graph(len(order), [edge_key(a, b) for a, b in zip(order, order[1:])])
        assert len(cactus._path_places(order, pre)) == cfms_exact(g, pre).value


class TestAgainstRescanningSchedule:
    @settings(max_examples=300, deadline=None)
    @given(cactus_forests())
    def test_same_trace_and_strategy(self, inst):
        g, pre = inst
        plan = cactus_solve(CactusInstance(g, pre))
        trace, places = rescanning_cactus_solve(CactusInstance(g, pre))
        assert plan.trace == trace
        assert plan.witness == complete_with_slides(g, places, preoccupied=pre)


class TestTextFormat:
    def test_roundtrip(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
        inst = CactusInstance(g, frozenset({2, 4}))
        text = write_cactus_instance(inst)
        assert text.splitlines()[-1] == "preoccupied 2 4"
        assert parse_cactus_instance(text) == inst

    def test_roundtrip_without_preoccupied(self):
        inst = CactusInstance(path_graph(3))
        again = parse_cactus_instance(write_cactus_instance(inst))
        assert again == inst

    def test_rejects_duplicate_preoccupied_lines(self):
        text = "2 1\n0 1\npreoccupied 0\npreoccupied 1\n"
        with pytest.raises(ValueError):
            parse_cactus_instance(text)

    def test_rejects_repeated_preoccupied_vertex(self):
        # Like a repeated edge, a repeated vertex is refused, not collapsed.
        text = "2 1\n0 1\npreoccupied 1 1\n"
        with pytest.raises(ValueError, match="^line 3: repeated preoccupied vertex 1$"):
            parse_cactus_instance(text)

    def test_rejects_bad_vertex_token(self):
        text = "2 1\n0 1\npreoccupied x\n"
        with pytest.raises(ValueError):
            parse_cactus_instance(text)
