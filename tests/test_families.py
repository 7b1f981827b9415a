"""Family solvers against the exhaustive oracle and frozen small cases."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onemove.engines import cfms_run
from onemove.exact import czf_exact
from onemove.families import (
    CliqueConstruction,
    DismantlingOrdering,
    attach_trees_solve,
    clique_construction_layout,
    dismantling_strategy,
    pendent_dismantle,
    tree_solve,
    unicyclic_solve,
)
from onemove.deduction import is_successful
from onemove.graphs import FamilySpec, Graph, edge_key, generate
from onemove.solver import solve

from independence import alpha_exact


def random_tree(rng, n):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    return Graph(n, edges)


def random_unicyclic(rng, n):
    t = random_tree(rng, n)
    while True:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in t.edges:
            return Graph(n, set(t.edges) | {key})


def random_graph(rng, n, p):
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return Graph(n, edges)


def pentagon_with_tail(n):
    """A 5-cycle on 0..4 with a path 0-5-6-...-(n-1) hanging from vertex 0."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)]
    edges += [(v, v + 1) for v in range(5, n - 1)]
    return Graph(n, edges)


def replay_clears(g, result):
    state = cfms_run(g, result.witness)
    return state.succeeded(g)


class TestTreeSolve:
    def test_path_five(self):
        r = tree_solve(generate(FamilySpec("path", 5)))
        assert r.value == 3
        assert r.method == "tree"

    def test_star_five(self):
        assert tree_solve(generate(FamilySpec("star", 5))).value == 4

    def test_spider_three_legs(self):
        spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        r = tree_solve(spider)
        assert r.value == 4
        assert replay_clears(spider, r)

    def test_forest_sums_components(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        assert tree_solve(g).value == 1 + 2

    def test_single_vertex(self):
        assert tree_solve(Graph(1, [])).value == 1

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            tree_solve(generate(FamilySpec("cycle", 4)))

    def test_matches_oracle_and_replays(self):
        rng = random.Random(41)
        for _ in range(120):
            t = random_tree(rng, rng.randint(2, 12))
            r = tree_solve(t)
            assert r.value == czf_exact(t).value
            assert replay_clears(t, r)

    def test_tree_value_is_independence_number(self):
        rng = random.Random(42)
        for _ in range(60):
            t = random_tree(rng, rng.randint(2, 12))
            assert tree_solve(t).value == alpha_exact(t).value


class TestUnicyclicSolve:
    def test_square_with_tail(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)])
        r = unicyclic_solve(g)
        assert r.value == 3
        assert r.method == "unicyclic"

    def test_square_with_leaf(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
        assert unicyclic_solve(g).value == 3

    def test_hexagon(self):
        assert unicyclic_solve(generate(FamilySpec("cycle", 6))).value == 3

    def test_rejects_tree(self):
        with pytest.raises(ValueError):
            unicyclic_solve(generate(FamilySpec("path", 4)))

    def test_rejects_two_cycles(self):
        with pytest.raises(ValueError):
            unicyclic_solve(generate(FamilySpec("bowtie", 5)))

    def test_long_tail_within_budget(self):
        # Rescanning the residual for the least leaf after every deletion
        # took about 5 s here.
        g = pentagon_with_tail(20_000)
        start = time.perf_counter()
        r = unicyclic_solve(g)
        assert time.perf_counter() - start < 2.0
        assert r.value == 10_000

    def test_matches_oracle_and_replays(self):
        rng = random.Random(43)
        for _ in range(100):
            g = random_unicyclic(rng, rng.randint(3, 12))
            r = unicyclic_solve(g)
            assert r.value == czf_exact(g).value
            assert replay_clears(g, r)


class TestPendentDismantle:
    def test_pentagon_with_pendant(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
        o = pendent_dismantle(g)
        assert o is not None and len(o) == 3

    def test_pentagon_with_tail_fails(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (5, 6)])
        assert pendent_dismantle(g) is None

    def test_forests_always_dismantle(self):
        rng = random.Random(44)
        for _ in range(40):
            t = random_tree(rng, rng.randint(1, 12))
            assert pendent_dismantle(t) is not None

    def test_backtrack_stats_recorded(self):
        # A backtracking search abandons branches on this graph; the peel never does.
        stats = {}
        assert pendent_dismantle(pentagon_with_tail(7), stats=stats) is None
        assert stats["backtracks"] == 0

    def test_all_orderings_share_length(self):
        # Every successful ordering of one graph certifies the same count.
        def all_orderings(g, cap=300):
            found = []

            def recurse(alive, acc):
                if len(found) >= cap:
                    return
                live_edges = [
                    e for e in g.edges if e[0] in alive and e[1] in alive
                ]
                if not live_edges:
                    found.append(tuple(acc))
                    return
                deg = {v: 0 for v in alive}
                for u, v in live_edges:
                    deg[u] += 1
                    deg[v] += 1
                for u, v in live_edges:
                    if deg[u] == 1 or deg[v] == 1:
                        recurse(alive - {u, v}, acc + [(u, v)])

            recurse(frozenset(range(g.n)), [])
            return found

        rng = random.Random(45)
        graphs = [
            Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)]),
            generate(FamilySpec("path", 7)),
        ]
        graphs.extend(random_tree(rng, rng.randint(4, 8)) for _ in range(6))
        for g in graphs:
            lengths = {len(o) for o in all_orderings(g)}
            assert len(lengths) <= 1


def backtracking_dismantle(g):
    """Reference: exhaustive search over the pendant edge to delete at each
    step, least edge first, memoizing residual vertex sets that fail."""
    adj = g.adjacency()
    failed = set()

    def search(alive, acc):
        degree = {v: sum(1 for w in adj[v] if w in alive) for v in alive}
        if all(d == 0 for d in degree.values()):
            return True
        if alive in failed:
            return False
        candidates = sorted(
            {edge_key(v, next(w for w in adj[v] if w in alive)) for v in alive if degree[v] == 1}
        )
        for e in candidates:
            acc.append(e)
            if search(alive - set(e), acc):
                return True
            acc.pop()
        failed.add(alive)
        return False

    acc = []
    found = search(frozenset(range(g.n)), acc)
    return DismantlingOrdering(tuple(acc)) if found else None


@st.composite
def pendant_graphs(draw):
    """A graph on up to 10 vertices, with a pendant hung on some of its
    vertices (sometimes every one)."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    hung = sorted(draw(st.one_of(st.just(set(range(n))), st.sets(st.integers(0, n - 1)))))
    edges |= {(v, n + i) for i, v in enumerate(hung)}
    return Graph(n + len(hung), frozenset(edges))


class TestAgainstBacktracking:
    @settings(max_examples=300, deadline=None)
    @given(pendant_graphs())
    def test_peel_matches_search(self, g):
        assert pendent_dismantle(g) == backtracking_dismantle(g)


class TestDismantlableValue:
    def test_path_four(self):
        g = generate(FamilySpec("path", 4))
        o = pendent_dismantle(g)
        assert len(o) == 2
        assert dismantling_strategy(g, o).searcher_count() == 2

    def test_pentagon_with_pendant(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
        assert dismantling_strategy(g, pendent_dismantle(g)).searcher_count() == 3

    def test_nine_vertex_tree(self):
        g = generate(FamilySpec("path", 9))
        o = pendent_dismantle(g)
        assert len(o) == 4
        assert dismantling_strategy(g, o).searcher_count() == 5
        assert tree_solve(g).value == 5

    def test_rejects_non_pendant_step(self):
        g = generate(FamilySpec("cycle", 4))
        with pytest.raises(ValueError, match="not pendant"):
            dismantling_strategy(g, DismantlingOrdering(((0, 1),))).searcher_count()

    def test_rejects_deleted_vertex(self):
        g = generate(FamilySpec("path", 4))
        with pytest.raises(ValueError, match="deleted"):
            dismantling_strategy(g, DismantlingOrdering(((0, 1), (1, 2)))).searcher_count()

    def test_rejects_incomplete_ordering(self):
        g = generate(FamilySpec("path", 5))
        with pytest.raises(ValueError, match="remaining"):
            dismantling_strategy(g, DismantlingOrdering(((0, 1),))).searcher_count()

    def test_matches_oracle_when_ordering_exists(self):
        rng = random.Random(46)
        checked = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.15, 0.5))
            o = pendent_dismantle(g)
            if o is None:
                continue
            checked += 1
            strategy = dismantling_strategy(g, o)
            assert strategy.searcher_count() == czf_exact(g).value
            state = cfms_run(g, strategy)
            assert state.succeeded(g)
        assert checked >= 60


class TestDismantlingStrategy:
    def test_strategy_replays(self):
        rng = random.Random(47)
        for _ in range(40):
            g = random_tree(rng, rng.randint(2, 10))
            o = pendent_dismantle(g)
            strat = dismantling_strategy(g, o)
            state = cfms_run(g, strat)
            assert state.succeeded(g)
            assert state.ever_occupied == frozenset(range(g.n))
            assert strat.searcher_count() == g.n - len(o)


class TestCliqueConstruction:
    def test_complete_graph_single_clique(self):
        g = generate(FamilySpec("complete", 4))
        c = CliqueConstruction((frozenset({0, 1, 2, 3}),), (0,), ())
        assert solve(g, method="clique", construction=c).value == 3

    def test_joined_triangles(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                      (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
        c = CliqueConstruction(
            (frozenset({0, 1, 2}), frozenset({3, 4, 5})), (0, 3),
            (frozenset({1, 2}),))
        assert solve(g, method="clique", construction=c).value == 4
        assert czf_exact(g).value == 4

    def test_chained_edges(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2), (1, 3)])
        c = CliqueConstruction(
            (frozenset({0, 1}), frozenset({2, 3})), (0, 2), (frozenset({1}),))
        assert solve(g, method="clique", construction=c).value == 2
        assert czf_exact(g).value == 2

    def test_layout_succeeds_under_deduction(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2), (1, 3)])
        c = CliqueConstruction(
            (frozenset({0, 1}), frozenset({2, 3})), (0, 2), (frozenset({1}),))
        layout = clique_construction_layout(g, c)
        assert sorted(layout.support()) == [1, 3]
        assert is_successful(g, layout)

    def test_rejects_overlapping_cliques(self):
        g = generate(FamilySpec("complete", 4))
        c = CliqueConstruction(
            (frozenset({0, 1, 2}), frozenset({2, 3})), (0, 2), (frozenset({1}),))
        with pytest.raises(ValueError):
            solve(g, method="clique", construction=c).value

    def test_rejects_anchor_outside_clique(self):
        g = generate(FamilySpec("complete", 4))
        c = CliqueConstruction((frozenset({0, 1, 2, 3}),), (4,), ())
        with pytest.raises(ValueError):
            solve(g, method="clique", construction=c).value

    def test_rejects_edge_mismatch(self):
        g = Graph(4, [(0, 1), (2, 3)])
        c = CliqueConstruction(
            (frozenset({0, 1}), frozenset({2, 3})), (0, 2), (frozenset({1}),))
        with pytest.raises(ValueError):
            solve(g, method="clique", construction=c).value

    def test_random_constructions_match_oracle(self):
        rng = random.Random(48)
        for _ in range(60):
            sizes = [rng.randint(2, 4)]
            while sum(sizes) <= 9 and rng.random() < 0.7:
                sizes.append(rng.randint(2, 4))
            total = 0
            cliques, anchors, attachments = [], [], []
            edges = set()
            grown = []
            for i, size in enumerate(sizes):
                members = list(range(total, total + size))
                total += size
                edges.update(
                    (u, v) for u in members for v in members if u < v)
                cliques.append(frozenset(members))
                anchors.append(members[0])
                if i > 0:
                    pool = [v for v in grown if v not in anchors[:i]]
                    base = rng.choice(pool)
                    y = {base} | {
                        w for w in pool
                        if (min(base, w), max(base, w)) in edges and rng.random() < 0.5
                    }
                    y = frozenset(
                        w for w in y
                        if all((min(w, x), max(w, x)) in edges for x in y if x != w))
                    attachments.append(y)
                    edges.update(
                        (min(w, z), max(w, z)) for w in y for z in members)
                grown.extend(members)
            g = Graph(total, edges)
            c = CliqueConstruction(
                tuple(cliques), tuple(anchors), tuple(attachments))
            value = solve(g, method="clique", construction=c).value
            assert value == total - len(sizes)
            if total <= 12:
                assert value == czf_exact(g).value


class TestAttachTrees:
    def test_triangle_with_pendants(self):
        g = generate(FamilySpec("complete", 3))
        h = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
        att = {0: frozenset({3}), 1: frozenset({4}), 2: frozenset({5})}
        r = attach_trees_solve(g, h, att)
        assert r.value == 3
        assert replay_clears(h, r)

    def test_single_vertex_with_pendant(self):
        r = attach_trees_solve(
            Graph(1, []), Graph(2, [(0, 1)]), {0: frozenset({1})})
        assert r.value == 1

    def test_worked_graph_with_pendants(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5),
                      (1, 3), (5, 6), (1, 6), (0, 2)])
        edges = set(g.edges) | {(v, v + 7) for v in range(7)}
        h = Graph(14, edges)
        att = {v: frozenset({v + 7}) for v in range(7)}
        assert attach_trees_solve(g, h, att).value == 7

    def test_rejects_even_leaf_distances(self):
        g = Graph(1, [])
        h = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="vertex 0"):
            attach_trees_solve(g, h, {0: frozenset({1, 2})})

    @pytest.mark.parametrize(
        "edges", [[(0, 1), (0, 2), (1, 2)], [(0, 1)]], ids=["cycle", "disconnected"]
    )
    def test_rejects_attachment_that_is_not_a_tree(self, edges):
        with pytest.raises(ValueError, match="vertex 0 does not induce a tree"):
            attach_trees_solve(Graph(1, []), Graph(3, edges), {0: frozenset({1, 2})})

    def test_odd_leaf_alone_is_not_enough(self):
        # Each tree has a leaf at odd distance, yet no pendant-edge removal
        # ever isolates a base vertex: every base neighbor a dies together
        # with its private leaf b, so the bare triangle survives.
        base = [(0, 1), (0, 2), (1, 2)]
        edges = list(base)
        att = {}
        nxt = 3
        for v in range(3):
            a, b, c, d = nxt, nxt + 1, nxt + 2, nxt + 3
            edges += [(v, a), (a, b), (a, c), (c, d)]
            att[v] = frozenset({a, b, c, d})
            nxt += 4
        h = Graph(15, edges)
        assert pendent_dismantle(h) is None
        with pytest.raises(ValueError, match="cannot absorb"):
            attach_trees_solve(Graph(3, base), h, att)

    def test_base_vertex_consumed_after_neighbor_falls(self):
        # Vertex 0's own tree cannot absorb it, but once vertex 1 is gone
        # the pendant chain through vertex 2 can; the solver must find the
        # global ordering instead of rejecting.
        h = Graph(7, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (1, 6)])
        att = {0: frozenset({2, 3, 4, 5}), 1: frozenset({6})}
        r = attach_trees_solve(Graph(2, [(0, 1)]), h, att)
        assert r.value == 4
        assert r.value == czf_exact(h).value

    def test_error_names_blocking_base_vertex(self):
        # Vertices 0 and 1 fall to the peel; the triangle 2-3-4 keeps its edges.
        base = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)]
        edges = list(base)
        att = {}
        nxt = 5
        for v in (0, 2, 3, 4):
            a, b, c, d = nxt, nxt + 1, nxt + 2, nxt + 3
            edges += [(v, a), (a, b), (a, c), (c, d)]
            att[v] = frozenset({a, b, c, d})
            nxt += 4
        edges.append((1, nxt))
        att[1] = frozenset({nxt})
        h = Graph(nxt + 1, edges)
        with pytest.raises(ValueError, match="at vertex 2 cannot absorb"):
            attach_trees_solve(Graph(5, base), h, att)

    def test_rejects_cross_tree_edges(self):
        g = Graph(2, [(0, 1)])
        h = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        att = {0: frozenset({2}), 1: frozenset({3})}
        with pytest.raises(ValueError):
            attach_trees_solve(g, h, att)

    def test_random_instances_match_oracle(self):
        rng = random.Random(49)
        solved = 0
        for _ in range(120):
            nb = rng.randint(1, 4)
            g = random_graph(rng, nb, 0.6)
            edges = set(g.edges)
            att = {}
            nxt = nb
            for v in range(nb):
                size = rng.randint(1, 3)
                members = []
                for _ in range(size):
                    parent = v if not members else rng.choice([v] + members)
                    edges.add((min(parent, nxt), max(parent, nxt)))
                    members.append(nxt)
                    nxt += 1
                att[v] = frozenset(members)
            h = Graph(nxt, edges)
            try:
                r = attach_trees_solve(g, h, att)
            except ValueError:
                continue
            solved += 1
            assert r.value == czf_exact(h).value
            assert replay_clears(h, r)
        assert solved >= 30
