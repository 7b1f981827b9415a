"""Acceptance sweep: one test per advertised guarantee, in order.

Every expected value here comes from the exhaustive oracles or from a
frozen closed form, never from the solver under test.  Tests that carry
a wall-clock promise enforce it with perf_counter.
"""

import itertools
import logging
import random
import time
from math import ceil

import numpy as np

from onemove.cactus import CactusInstance, cactus_solve
from onemove.constructions import (
    cover_to_strategy,
    monotone_chain,
    perturb_delta,
    spectrum_witness,
    subdivision_value,
    vc_to_czf_reduction,
)
from onemove.deduction import (
    Layout,
    check_order_invariance,
    check_terminal_success,
    is_successful,
    run_deduction,
)
from onemove.engines import cfms_run, czf_run
from onemove.exact import (
    cfms_exact,
    czf_exact,
    d_exact,
    mu_exact,
    validate_uniqueness_witness,
)
from onemove.families import (
    CliqueConstruction,
    dismantling_strategy,
    pendent_dismantle,
    tree_solve,
    unicyclic_solve,
)
from onemove.graphs import (
    FamilySpec,
    Graph,
    connected_components,
    generate,
    induced_subgraph,
    subdivide_all,
)
from onemove.solver import solve
from independence import alpha_exact
from value_table import czf_value_table, pair_bit_index

log = logging.getLogger(__name__)

WORKED = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5),
                   (1, 3), (5, 6), (1, 6), (0, 2)])

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
PRISM = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                  (0, 3), (1, 4), (2, 5)])
Q3 = Graph(8, [(a, a ^ (1 << b)) for a in range(8) for b in range(3)
               if a < a ^ (1 << b)])


def is_connected(g):
    return len(connected_components(g)) == 1


def random_graph(rng, n, p):
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p}
    return Graph(n, edges)


def random_connected(rng, n):
    while True:
        g = random_graph(rng, n, rng.uniform(0.25, 0.75))
        if is_connected(g):
            return g


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


def strategy_clears(g, strategy, pre=frozenset()):
    state = cfms_run(g, strategy, preoccupied=pre)
    return state.succeeded(g)


_CORPUS = {}


def equivalence_corpus():
    """The shared corpus: every connected labeled 5-vertex graph plus 200
    random connected graphs on 6 and 7 vertices."""
    if not _CORPUS:
        pairs = list(itertools.combinations(range(5), 2))
        five = []
        for mask in range(1 << 10):
            g = Graph(5, {pairs[i] for i in range(10) if mask >> i & 1})
            if is_connected(g):
                five.append(g)
        assert len(five) == 728  # connected labeled graphs on five vertices
        rng = random.Random(20260819)
        extra = [random_connected(rng, rng.choice((6, 7))) for _ in range(200)]
        _CORPUS["five"] = five
        _CORPUS["extra"] = extra
    return _CORPUS["five"], _CORPUS["extra"]


_TABLES = {}


def value_table(n):
    if n not in _TABLES:
        _TABLES[n] = czf_value_table(n)
    return _TABLES[n]


def test_01_worked_example_four_parameters():
    start = time.perf_counter()
    assert czf_exact(WORKED).value == 4
    assert cfms_exact(WORKED).value == 4
    assert d_exact(WORKED).value == 4
    mu = mu_exact(WORKED)
    assert mu.value == 3
    assert validate_uniqueness_witness(WORKED, mu.witness)
    assert time.perf_counter() - start < 1.0


def test_02_all_four_parameters_agree():
    start = time.perf_counter()
    five, extra = equivalence_corpus()
    for g in five + extra:
        czf = czf_exact(g).value
        assert cfms_exact(g).value == czf
        assert d_exact(g).value == czf
        assert g.n - mu_exact(g).value == czf
    assert time.perf_counter() - start < 300.0


def test_03_closed_form_families():
    start = time.perf_counter()
    for n in range(1, 11):
        path = generate(FamilySpec("path", n))
        assert czf_exact(path).value == ceil(n / 2)
    for n in range(3, 11):
        cycle = generate(FamilySpec("cycle", n))
        assert czf_exact(cycle).value == ceil(n / 2)
    for n in range(2, 11):
        complete = generate(FamilySpec("complete", n))
        assert czf_exact(complete).value == n - 1
    for n in range(2, 11):
        star = generate(FamilySpec("star", n))
        assert czf_exact(star).value == n - 1
    for n in range(5, 11):
        wheel = generate(FamilySpec("wheel", n))
        assert czf_exact(wheel).value == ceil(n / 2)
    # Boundary cases sit outside the formulas: the 4-wheel is complete and
    # a single vertex still needs one searcher.
    assert czf_exact(generate(FamilySpec("wheel", 4))).value == 3
    assert czf_exact(generate(FamilySpec("complete", 1))).value == 1
    assert time.perf_counter() - start < 60.0


def test_04_order_invariance_and_terminal_success():
    start = time.perf_counter()
    rng = random.Random(4)
    successful = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        counts = {}
        for v in range(n):
            c = rng.choice((0, 0, 1, 1, 1, 2))
            if c:
                counts[v] = c
        if not counts:
            counts = {rng.randrange(n): 1}
        layout = Layout(counts)
        assert check_order_invariance(g, layout, trials=3,
                                      seed=rng.randrange(10 ** 6))
        if is_successful(g, layout):
            successful += 1
            assert check_terminal_success(g, layout)
    assert successful >= 200  # the terminal-success branch must be exercised
    assert time.perf_counter() - start < 120.0


def test_05_bounds_and_induced_monotonicity():
    five, extra = equivalence_corpus()
    for g in five + extra:
        value = czf_exact(g).value
        assert ceil(g.n / 2) <= value <= g.n - 1
        assert value >= alpha_exact(g).value
        for v in range(g.n):
            h, _ = induced_subgraph(g, set(range(g.n)) - {v})
            assert czf_exact(h).value <= value


def test_06_single_edge_edits_move_value_by_at_most_one():
    start = time.perf_counter()
    for n in range(2, 7):
        table = value_table(n).astype(np.int64)
        masks = np.arange(len(table), dtype=np.int64)
        for b in pair_bit_index(n).values():
            with_edge = table[masks | (1 << b)]
            without = table[masks & ~(1 << b)]
            assert np.abs(with_edge - without).max() <= 1
    # The same fact through the public probe on a sample of labeled graphs.
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        u, v = sorted(rng.sample(range(n), 2))
        mode = "remove" if (u, v) in g.edges else "add"
        assert perturb_delta(g, (u, v), mode) in (-1, 0, 1)
    assert time.perf_counter() - start < 300.0


def test_07_every_feasible_value_is_achieved():
    start = time.perf_counter()
    for n in range(6, 11):
        for d in range(ceil(n / 2), n):
            g = spectrum_witness(n, d)
            assert g.n == n
            assert czf_exact(g).value == d
    assert time.perf_counter() - start < 300.0


def test_08_monotone_chains():
    plans = [
        ("decrease", 8, -1, 8 // 2 - 1),
        ("increase", 2, 1, 2),
        ("increase", 3, 1, 3),
        ("neutral", 4, 0, (4 - 1) * (3 * 4 - 4) // 2),
    ]
    for kind, m, want_delta, want_steps in plans:
        chain = monotone_chain(kind, m)
        assert len(chain) == want_steps + 1
        previous = None
        for i, (g, delta) in enumerate(chain):
            value = czf_exact(g).value
            if i == 0:
                assert delta == 0
            else:
                assert delta == want_delta
                assert value - previous == delta
            previous = value


def test_09_family_solvers_match_the_oracle():
    start = time.perf_counter()
    rng = random.Random(9)

    for _ in range(100):
        t = random_tree(rng, rng.randint(2, 12))
        result = tree_solve(t)
        assert result.value == czf_exact(t).value
        assert result.value == alpha_exact(t).value
        assert strategy_clears(t, result.witness)

    for _ in range(100):
        g = random_unicyclic(rng, rng.randint(3, 12))
        result = unicyclic_solve(g)
        assert result.value == czf_exact(g).value
        assert strategy_clears(g, result.witness)

    dismantled = 0
    while dismantled < 100:
        if rng.random() < 0.5:
            # Attaching a pendant to every vertex always leaves a graph
            # that pendent deletions can finish off.
            k = rng.randint(2, 6)
            base = random_connected(rng, k)
            g = Graph(2 * k, set(base.edges) | {(v, k + v) for v in range(k)})
        else:
            g = random_tree(rng, rng.randint(2, 12))
        order = pendent_dismantle(g)
        if order is None:
            continue
        dismantled += 1
        strategy = dismantling_strategy(g, order)
        assert strategy.searcher_count() == czf_exact(g).value
        assert strategy_clears(g, strategy)

    built = 0
    while built < 100:
        sizes = [rng.randint(2, 4)]
        while sum(sizes) <= 8 and rng.random() < 0.7:
            sizes.append(rng.randint(2, 4))
        if sum(sizes) > 12:
            continue
        total = 0
        cliques, anchors, attachments = [], [], []
        edges = set()
        grown = []
        for i, size in enumerate(sizes):
            members = list(range(total, total + size))
            total += size
            edges.update((u, v) for u in members for v in members if u < v)
            cliques.append(frozenset(members))
            anchors.append(members[0])
            if i > 0:
                pool = [v for v in grown if v not in anchors[:i]]
                seed = rng.choice(pool)
                y = {seed} | {
                    w for w in pool
                    if (min(seed, w), max(seed, w)) in edges
                    and rng.random() < 0.5
                }
                y = frozenset(
                    w for w in y
                    if all((min(w, x), max(w, x)) in edges
                           for x in y if x != w))
                attachments.append(y)
                edges.update(
                    (min(w, z), max(w, z)) for w in y for z in members)
            grown.extend(members)
        g = Graph(total, edges)
        c = CliqueConstruction(
            tuple(cliques), tuple(anchors), tuple(attachments))
        assert solve(g, method="clique", construction=c).value == czf_exact(g).value
        built += 1

    for _ in range(100):
        g = random_cactus(rng, rng.randint(3, 12))
        plan = cactus_solve(CactusInstance(g, frozenset()))
        assert plan.value == czf_exact(g).value
        assert strategy_clears(g, plan.witness)

    assert time.perf_counter() - start < 600.0


def _connected_masks(masks, pairs, n):
    """The edge masks whose graphs are connected: vertex 0's reach grows
    across every edge of each mask, n - 1 times over, in one numpy pass
    per edge."""
    reach = np.ones_like(masks)
    for _ in range(n - 1):
        for b, (i, j) in enumerate(pairs):
            has = (masks >> b) & 1
            reach |= ((has & (reach >> j)) & 1) << i | ((has & (reach >> i)) & 1) << j
    return masks[reach == (1 << n) - 1]


def _connected_representatives(n, max_edges):
    """One labeled representative per isomorphism class of the connected
    graphs on n vertices with at most max_edges edges, found by taking the
    minimum edge mask over all vertex relabelings.  Disconnected masks are
    dropped first: relabeling keeps a graph connected, so every class
    keeps its minimum."""
    pairs = list(itertools.combinations(range(n), 2))
    bit = {p: i for i, p in enumerate(pairs)}
    count = len(pairs)
    if n <= 6:
        masks = np.arange(1 << count, dtype=np.int32)
    else:
        floor = n - 1  # connectivity needs at least a spanning tree
        chosen = []
        for m in range(floor, max_edges + 1):
            for combo in itertools.combinations(range(count), m):
                chosen.append(sum(1 << b for b in combo))
        masks = np.array(sorted(chosen), dtype=np.int32)
    masks = _connected_masks(masks, pairs, n)
    canon = masks.copy()
    remap = np.zeros_like(masks)
    for perm in itertools.permutations(range(n)):
        remap[:] = 0
        for b, (i, j) in enumerate(pairs):
            target = bit[tuple(sorted((perm[i], perm[j])))]
            np.bitwise_or(remap, ((masks >> b) & 1) << target, out=remap)
        np.minimum(canon, remap, out=canon)
    reps = []
    for mask in masks[canon == masks].tolist():
        if bin(mask).count("1") > max_edges:
            continue
        g = Graph(n, {pairs[i] for i in range(count) if mask >> i & 1})
        if is_connected(g):
            reps.append(g)
    return reps


def test_10_subdivision_formula_is_exact():
    total = 0
    for n in range(1, 8):
        max_edges = 14 - n
        for g in _connected_representatives(n, max_edges):
            expected = czf_exact(subdivide_all(g)).value
            assert subdivision_value(g).value == expected, sorted(g.edges)
            total += 1
    # 11 trees plus 33 unicyclic classes is the whole n=7 slice.
    assert total == 134
    # The tree and cycle shapes land on their own closed forms.
    path = generate(FamilySpec("path", 7))
    assert subdivision_value(path).value == path.m + 1
    cycle = generate(FamilySpec("cycle", 7))
    assert subdivision_value(cycle).value == cycle.m
    # Label robustness: the witness replay inside subdivision_value must
    # hold on arbitrary labelings, not just canonical ones.
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(2, 6)
        g = random_connected(rng, n)
        if g.m > 14 - n:
            continue
        result = subdivision_value(g)
        assert result.value == g.m + (1 if g.m == g.n - 1 else 0)


def test_11_reduction_forward_certificates():
    start = time.perf_counter()
    cases = [
        (K4, 3, frozenset({0, 1, 2})),
        (K33, 3, frozenset({0, 1, 2})),
        (PRISM, 4, frozenset({1, 2, 3, 4})),  # no 3-vertex cover exists
        (Q3, 4, frozenset({0, 3, 5, 6})),
    ]
    for g, budget, cover in cases:
        inst = vc_to_czf_reduction(g, budget)
        assert inst.h.n == 2 * g.n + 8 * g.m
        assert inst.k == 4 * g.m + g.n + budget
        adjacency = inst.h.adjacency()
        assert max(len(adjacency[v]) for v in range(inst.h.n)) <= 19
        strategy = cover_to_strategy(inst, cover)
        assert strategy.searcher_count() == inst.k
        assert strategy_clears(inst.h, strategy)
    assert time.perf_counter() - start < 60.0


def test_12_preoccupied_cactus_matches_extended_oracle():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(3, 10)
        g = random_cactus(rng, n)
        pre = frozenset(v for v in range(n) if rng.random() < 0.3)
        # Any internal dichotomy violation raises out of cactus_solve and
        # fails this test; none may fire.
        plan = cactus_solve(CactusInstance(g, pre))
        assert plan.value == cfms_exact(g, preoccupied=pre).value
        assert strategy_clears(g, plan.witness, pre)


def test_13_contraction_raises_value_by_at_most_one():
    findings = 0
    for n in range(2, 8):
        big = value_table(n).astype(np.int64)
        small = value_table(n - 1).astype(np.int64)
        bits = pair_bit_index(n)
        small_bits = pair_bit_index(n - 1)
        masks = np.arange(len(big), dtype=np.int64)
        for (i, j), b in bits.items():
            merged = np.zeros_like(masks)
            for (a, c), s in bits.items():
                if s == b:
                    continue
                ma = i if a == j else a
                mc = i if c == j else c
                ma -= ma > j
                mc -= mc > j
                target = small_bits[(min(ma, mc), max(ma, mc))] if n > 2 else 0
                np.bitwise_or(merged, ((masks >> s) & 1) << target, out=merged)
            has_edge = (masks >> b) & 1 == 1
            before = big[has_edge]
            after = small[merged[has_edge]]
            assert (after <= before + 1).all()
            increased = int((after > before).sum())
            findings += increased
    if findings:
        log.info("contraction raised the clearing number on %d labeled "
                 "(graph, edge) pairs with at most 7 vertices", findings)
    else:
        log.info("no contraction on at most 7 vertices raised the "
                 "clearing number")
