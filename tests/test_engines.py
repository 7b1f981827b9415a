"""Forcing and sliding engine tests."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onemove.deduction import FiringSequence, Layout, run_deduction
from onemove.engines import (
    Clearing,
    Strategy,
    StrategyError,
    cfms_run,
    complete_with_slides,
    czf_run,
    deduction_to_cfms,
)
from onemove.graphs import Edge, FamilySpec, Graph, edge_key, generate, parse_edge_list

WORKED = "7 11\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n1 3\n5 6\n1 6\n0 2\n"


def worked_graph() -> Graph:
    return parse_edge_list(WORKED)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return Graph(n, frozenset(edges))


class TestCzf:
    def test_worked_run(self):
        state = czf_run(worked_graph(), [0, 2, 3, 5])
        assert state.succeeded(worked_graph())
        assert state.forces == ((0, 1), (3, 4), (5, 6))

    def test_worked_too_small(self):
        state = czf_run(worked_graph(), [0, 2, 3])
        assert state.colored == frozenset({0, 1, 2, 3, 4, 5})
        assert not state.succeeded(worked_graph())

    def test_k3_single(self):
        state = czf_run(generate(FamilySpec("complete", 3)), [0])
        assert state.colored == frozenset({0})
        assert state.forces == ()

    def test_only_initial_vertices_force(self):
        # 0-1-2-3 path: 0 forces 1, but 1 may not pass the force along
        state = czf_run(generate(FamilySpec("path", 4)), [0])
        assert state.colored == frozenset({0, 1})

    def test_each_forces_once(self):
        # star center with two uncolored leaves cannot force either one
        g = generate(FamilySpec("star", 4))
        assert czf_run(g, [0, 2]).colored == frozenset({0, 2})
        assert czf_run(g, [0, 2, 3]).succeeded(g)

    def test_full_set_colors_all(self):
        g = worked_graph()
        assert czf_run(g, range(g.n)).succeeded(g)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            czf_run(generate(FamilySpec("path", 2)), [5])

    def test_order_invariance_shuffled(self):
        # replay the forcing greedily from shuffled vertex orders and
        # confirm the colored closure never changes
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8))
            initial = rng.sample(range(g.n), rng.randint(1, g.n))
            baseline = czf_run(g, initial).colored
            order = list(initial)
            rng.shuffle(order)
            adj = g.adjacency()
            colored = set(initial)
            spent: set[int] = set()
            progress = True
            while progress:
                progress = False
                for v in order:
                    if v in spent:
                        continue
                    unc = [w for w in adj[v] if w not in colored]
                    if len(unc) == 1:
                        colored.add(unc[0])
                        spent.add(v)
                        progress = True
            assert colored == baseline


class TestStrategy:
    def test_from_text(self):
        s = Strategy.from_text("place 0; slide 0 1")
        assert s.actions == (("place", 0), ("slide", 0, 1))

    def test_bad_text(self):
        with pytest.raises(ValueError):
            Strategy.from_text("hop 0 1")

    def test_bad_text_numbers_actions_not_chunks(self):
        with pytest.raises(ValueError, match=r"^action 1: cannot parse 'hop 0 1'$"):
            Strategy.from_text("; place 0;; hop 0 1")
        with pytest.raises(ValueError, match=r"^action 0: '0x' in 'slide 0x 1' is not a vertex index$"):
            Strategy.from_text("slide 0x 1")

    def test_bad_action_shape(self):
        with pytest.raises(ValueError):
            Strategy((("jump", 0),))

    def test_normalize(self):
        s = Strategy((("place", 0), ("slide", 0, 1), ("place", 2)))
        assert not s.is_normalized()
        t = s.normalize()
        assert t.is_normalized()
        assert t.places() == [0, 2]
        assert t.slides() == [(0, 1)]
        assert t.searcher_count() == 2


class TestCfms:
    def test_worked_strategy(self):
        g = worked_graph()
        s = Strategy.from_text("place 0; place 2; place 3; place 5; slide 0 1; slide 3 4; slide 5 6")
        state = cfms_run(g, s)
        assert state.succeeded(g)
        assert state.cleared_edges == g.edges
        assert state.occupied == frozenset({1, 2, 4, 6})

    def test_k2_slide(self):
        g = generate(FamilySpec("path", 2))
        state = cfms_run(g, Strategy.from_text("place 0; slide 0 1"))
        assert state.succeeded(g)

    def test_p3_rule_two_then_one(self):
        g = generate(FamilySpec("path", 3))
        state = cfms_run(g, Strategy.from_text("place 0; place 2; slide 0 1"))
        assert state.succeeded(g)
        assert state.moved == frozenset({1})

    def test_rule_one_only(self):
        g = generate(FamilySpec("path", 2))
        state = cfms_run(g, Strategy.from_text("place 0; place 1"))
        assert state.succeeded(g)

    def test_slide_needs_unique_contaminated(self):
        g = generate(FamilySpec("path", 3))
        with pytest.raises(StrategyError, match="action 1"):
            cfms_run(g, Strategy.from_text("place 1; slide 1 0"))

    def test_slide_from_unoccupied(self):
        g = generate(FamilySpec("path", 2))
        with pytest.raises(StrategyError, match="unoccupied"):
            cfms_run(g, Strategy.from_text("slide 0 1"))

    def test_slide_twice(self):
        g = generate(FamilySpec("path", 4))
        s = Strategy.from_text("place 0; place 2; slide 0 1; slide 2 3")
        state = cfms_run(g, s)
        assert state.succeeded(g)
        s_bad = Strategy.from_text("place 0; slide 0 1; slide 1 2")
        with pytest.raises(StrategyError, match="already slid"):
            cfms_run(g, s_bad)

    def test_place_on_occupied(self):
        g = generate(FamilySpec("path", 2))
        with pytest.raises(StrategyError, match="occupied"):
            cfms_run(g, Strategy.from_text("place 0; place 0"))

    def test_place_on_cleared(self):
        g = generate(FamilySpec("path", 3))
        s = Strategy.from_text("place 0; place 2; slide 0 1; place 0")
        with pytest.raises(StrategyError, match="cleared vertex"):
            cfms_run(g, s)

    def test_place_on_isolated(self):
        g = Graph(1, frozenset())
        state = cfms_run(g, Strategy.from_text("place 0"))
        assert state.succeeded(g)
        assert state.ever_occupied == frozenset({0})

    def test_missing_edge(self):
        g = generate(FamilySpec("path", 3))
        with pytest.raises(StrategyError, match="missing edge"):
            cfms_run(g, Strategy.from_text("place 0; slide 0 2"))

    def test_self_loop_slide_is_a_missing_edge(self):
        g = generate(FamilySpec("path", 2))
        with pytest.raises(StrategyError, match=r"^action 1: slide along missing edge \(0, 0\)$"):
            cfms_run(g, Strategy.from_text("place 0; slide 0 0"))

    def test_preoccupied_triangle(self):
        g = generate(FamilySpec("cycle", 3))
        state = cfms_run(g, Strategy.from_text("place 1; slide 0 2"), preoccupied={0})
        assert state.succeeded(g)

    def test_preoccupied_searcher_slides_once(self):
        g = generate(FamilySpec("path", 3))
        state = cfms_run(g, Strategy.from_text("place 2; slide 0 1"), preoccupied={0})
        assert state.succeeded(g)
        assert state.occupied == frozenset({1, 2})


class TestCompletion:
    def test_worked_places(self):
        g = worked_graph()
        s = complete_with_slides(g, [0, 2, 3, 5])
        state = cfms_run(g, s)
        assert state.succeeded(g)
        assert state.ever_occupied == frozenset(range(7))

    def test_insufficient_places(self):
        g = worked_graph()
        s = complete_with_slides(g, [0, 2, 3])
        assert len(cfms_run(g, s).cleared_edges) < g.m

    def test_preoccupied(self):
        g = generate(FamilySpec("cycle", 3))
        s = complete_with_slides(g, [1], preoccupied={0})
        state = cfms_run(g, s, preoccupied={0})
        assert state.succeeded(g)

    def test_overlap_rejected(self):
        g = generate(FamilySpec("cycle", 3))
        with pytest.raises(ValueError, match="overlap"):
            complete_with_slides(g, [0], preoccupied={0})

    @pytest.mark.parametrize(
        "places, pre",
        [([-1], frozenset()), ([5], frozenset()), ([], frozenset({7}))],
        ids=["negative", "too-large", "preoccupied"],
    )
    def test_out_of_range_rejected(self, places, pre):
        g = Graph(3, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ValueError, match="out of range"):
            complete_with_slides(g, places, preoccupied=pre)

    def test_long_path_within_budget(self):
        # Rescanning every edge after every action took tens of seconds here.
        g = generate(FamilySpec("path", 10_000))
        start = time.perf_counter()
        state = cfms_run(g, complete_with_slides(g, range(0, g.n, 2)))
        assert time.perf_counter() - start < 2.0
        assert state.succeeded(g)

    def test_matches_any_maximal_order(self):
        # the greedy canonical order reaches the same cleared set as
        # random maximal slide orders
        rng = random.Random(17)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7))
            places = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            canonical = cfms_run(g, complete_with_slides(g, places))
            adj = g.adjacency()
            occupied = set(places)
            moved: set[int] = set()
            cleared = {e for e in g.edges if e[0] in occupied and e[1] in occupied}
            while True:
                options = []
                for u in occupied - moved:
                    contam = [w for w in adj[u] if (min(u, w), max(u, w)) not in cleared]
                    if len(contam) == 1:
                        options.append((u, contam[0]))
                if not options:
                    break
                u, v = rng.choice(options)
                occupied.discard(u)
                cleared.add((min(u, v), max(u, v)))
                occupied.add(v)
                moved.add(v)
                for a, b in g.edges:
                    if a in occupied and b in occupied:
                        cleared.add((a, b))
            assert cleared == canonical.cleared_edges


@dataclass(frozen=True)
class Played:
    """The four sets of a sliding run, as the rescanning reference keeps them."""

    occupied: frozenset[int]
    moved: frozenset[int]
    cleared_edges: frozenset[Edge]
    ever_occupied: frozenset[int]

    @staticmethod
    def of(run: Clearing) -> "Played":
        return Played(run.occupied, run.moved, run.cleared_edges, run.ever_occupied)

    def succeeded(self, g: Graph) -> bool:
        return len(self.cleared_edges) == g.m and len(self.ever_occupied) == g.n


def rescan_run(g: Graph, actions, preoccupied=frozenset()) -> Played:
    """Reference sliding engine: every edge is rescanned for double
    occupation after every action."""
    pre = sorted(set(preoccupied))
    for v in pre:
        if not 0 <= v < g.n:
            raise ValueError(f"preoccupied vertex {v} out of range")
    adj = g.adjacency()
    occupied, moved, ever, cleared = set(pre), set(), set(pre), set()

    def rescan():
        cleared.update(e for e in g.edges if e[0] in occupied and e[1] in occupied)

    def contaminated_at(v):
        return [w for w in adj[v] if edge_key(v, w) not in cleared]

    rescan()
    for i, act in enumerate(actions):
        if act[0] == "place":
            v = act[1]
            if not 0 <= v < g.n:
                raise StrategyError(f"action {i}: place on vertex {v} out of range")
            if v in occupied:
                raise StrategyError(f"action {i}: place on occupied vertex {v}")
            if adj[v] and not contaminated_at(v):
                raise StrategyError(f"action {i}: place on cleared vertex {v}")
        else:
            _, u, v = act
            if not (0 <= u < g.n and 0 <= v < g.n):
                raise StrategyError(f"action {i}: slide ({u}, {v}) out of range")
            if u == v or not g.has_edge(u, v):
                raise StrategyError(f"action {i}: slide along missing edge ({u}, {v})")
            if u not in occupied:
                raise StrategyError(f"action {i}: slide from unoccupied vertex {u}")
            if u in moved:
                raise StrategyError(f"action {i}: searcher at {u} has already slid")
            contam = contaminated_at(u)
            if contam != [v]:
                raise StrategyError(
                    f"action {i}: ({u}, {v}) is not the unique contaminated edge at {u}; "
                    f"contaminated neighbors of {u} are {contam}"
                )
            occupied.discard(u)
            cleared.add(edge_key(u, v))
            moved.add(v)
        occupied.add(v)
        ever.add(v)
        rescan()
    return Played(frozenset(occupied), frozenset(moved), frozenset(cleared), frozenset(ever))


def rescan_complete(g: Graph, places, preoccupied=frozenset()) -> Strategy:
    """Reference completion: scan for the lowest-index unslid searcher with
    one contaminated edge, slide it, rescan."""
    adj = g.adjacency()
    actions = [("place", v) for v in sorted(set(places))]
    while True:
        state = rescan_run(g, actions, preoccupied)
        for u in sorted(state.occupied - state.moved):
            contam = [w for w in adj[u] if edge_key(u, w) not in state.cleared_edges]
            if len(contam) == 1:
                actions.append(("slide", u, contam[0]))
                break
        else:
            return Strategy(tuple(actions))


@st.composite
def sliding_inputs(draw):
    """A graph on up to 10 vertices, preoccupied vertices, and placements."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    pre = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    places = draw(st.sets(st.integers(0, n - 1).filter(lambda v: v not in pre)))
    return Graph(n, frozenset(edges)), frozenset(pre), sorted(places)


def outcome(run, *args):
    """The run's four sets, or the type and message of the error it raised."""
    try:
        result = run(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return Played.of(result) if isinstance(result, Clearing) else result


class TestAgainstRescan:
    @settings(max_examples=300, deadline=None)
    @given(sliding_inputs())
    def test_completion_matches_lowest_index_scan(self, inst):
        g, pre, places = inst
        assert complete_with_slides(g, places, pre) == rescan_complete(g, places, pre)

    @settings(max_examples=300, deadline=None)
    @given(sliding_inputs(), st.data())
    def test_run_matches_on_altered_strategies(self, inst, data):
        g, pre, places = inst
        actions = list(rescan_complete(g, places, pre).actions)
        vertex = st.integers(-1, g.n)
        k = data.draw(st.integers(0, len(actions)))
        edit = data.draw(st.sampled_from(["place", "slide", "drop", "repeat"]))
        if edit == "place":
            actions[k : k + 1] = [("place", data.draw(vertex))]
        elif edit == "slide":
            actions[k : k + 1] = [("slide", data.draw(vertex), data.draw(vertex))]
        elif actions:
            j = data.draw(st.integers(0, len(actions) - 1))
            if edit == "drop":
                del actions[j]
            else:
                actions.insert(k, actions[j])
        strategy = Strategy(tuple(actions))
        assert outcome(cfms_run, g, strategy, pre) == outcome(rescan_run, g, actions, pre)

    @settings(max_examples=300, deadline=None)
    @given(sliding_inputs(), st.data())
    def test_run_matches_on_random_plays(self, inst, data):
        # A legal play in any order, then one action that may be illegal.
        g, pre, _ = inst
        adj = g.adjacency()
        rng = data.draw(st.randoms(use_true_random=False))
        actions: list[tuple] = []
        while rng.random() < 0.9:
            state = rescan_run(g, actions, pre)
            contam = [
                [w for w in adj[v] if edge_key(v, w) not in state.cleared_edges]
                for v in range(g.n)
            ]
            legal = [
                ("place", v)
                for v in range(g.n)
                if v not in state.occupied and (contam[v] or not adj[v])
            ]
            legal += [
                ("slide", u, *contam[u])
                for u in sorted(state.occupied - state.moved)
                if len(contam[u]) == 1
            ]
            if not legal:
                break
            actions.append(rng.choice(legal))
        last = [("place", v) for v in range(g.n)]
        last += [("slide", u, v) for u in range(g.n) for v in adj[u]]
        actions.append(rng.choice(last))
        strategy = Strategy(tuple(actions))
        assert outcome(cfms_run, g, strategy, pre) == outcome(rescan_run, g, actions, pre)


@st.composite
def altered_plays(draw):
    """The canonical completion of sliding_inputs with one action replaced,
    dropped or repeated, as in TestAgainstRescan."""
    g, pre, places = draw(sliding_inputs())
    actions = list(rescan_complete(g, places, pre).actions)
    vertex = st.integers(-1, g.n)
    k = draw(st.integers(0, len(actions)))
    edit = draw(st.sampled_from(["place", "slide", "drop", "repeat"]))
    if edit == "place":
        actions[k : k + 1] = [("place", draw(vertex))]
    elif edit == "slide":
        actions[k : k + 1] = [("slide", draw(vertex), draw(vertex))]
    elif actions:
        j = draw(st.integers(0, len(actions) - 1))
        if edit == "drop":
            del actions[j]
        else:
            actions.insert(k, actions[j])
    return g, pre, actions


@st.composite
def random_plays(draw):
    """A legal play in any order from sliding_inputs' graph and preoccupied
    vertices, then one action that may be illegal, as in TestAgainstRescan."""
    g, pre, _ = draw(sliding_inputs())
    adj = g.adjacency()
    rng = draw(st.randoms(use_true_random=False))
    actions: list[tuple] = []
    while rng.random() < 0.9:
        state = rescan_run(g, actions, pre)
        contam = [[w for w in adj[v] if edge_key(v, w) not in state.cleared_edges] for v in range(g.n)]
        legal = [("place", v) for v in range(g.n) if v not in state.occupied and (contam[v] or not adj[v])]
        legal += [("slide", u, *contam[u]) for u in sorted(state.occupied - state.moved) if len(contam[u]) == 1]
        if not legal:
            break
        actions.append(rng.choice(legal))
    last = [("place", v) for v in range(g.n)] + [("slide", u, v) for u in range(g.n) for v in adj[u]]
    actions.append(rng.choice(last))
    return g, pre, actions


class TestClearedIffBothEndsHeld:
    """Clearing keeps no edge set: it counts an edge as cleared exactly
    when both of its ends have held a searcher.  Every prefix of a play is
    checked against the rescanning reference, which keeps the edge set,
    and so is the O(1) verdict that certify reads."""

    @staticmethod
    def check_prefixes(g, pre, actions):
        for k in range(len(actions) + 1):
            want = outcome(rescan_run, g, actions[:k], pre)
            try:
                got = cfms_run(g, Strategy(tuple(actions[:k])), pre)
            except ValueError as exc:
                assert (type(exc).__name__, str(exc)) == want
                return
            assert isinstance(want, Played), want
            assert got.succeeded(g) == want.succeeded(g)
            assert (got.visited, got.cleared) == (len(want.ever_occupied), len(want.cleared_edges))
            ever = want.ever_occupied
            assert want.cleared_edges == {(a, b) for a, b in g.edges if a in ever and b in ever}
            assert Played.of(got) == want

    @settings(max_examples=300, deadline=None)
    @given(altered_plays())
    def test_altered_plays(self, play):
        self.check_prefixes(*play)

    @settings(max_examples=300, deadline=None)
    @given(random_plays())
    def test_random_plays(self, play):
        self.check_prefixes(*play)


def rescan_czf(g: Graph, initial):
    """Reference forcing play: every unspent initial vertex is rescanned in
    ascending order until a whole pass forces nothing."""
    start = sorted(set(initial))
    adj = g.adjacency()
    colored, spent, forces = set(start), set(), []
    progress = True
    while progress:
        progress = False
        for v in start:
            uncolored = [w for w in adj[v] if w not in colored]
            if v not in spent and len(uncolored) == 1:
                colored.add(uncolored[0])
                spent.add(v)
                forces.append((v, uncolored[0]))
                progress = True
    return frozenset(colored), tuple(forces)


@st.composite
def forcing_inputs(draw):
    """A graph on up to 14 vertices, sparse or dense, and an initial set."""
    n = draw(st.integers(1, 14))
    p = draw(st.sampled_from((0.15, 0.3, 0.5, 0.8)))
    rng = draw(st.randoms(use_true_random=False))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    initial = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Graph(n, frozenset(edges)), initial


class TestCzfAgainstRescan:
    @settings(max_examples=300, deadline=None)
    @given(forcing_inputs())
    def test_same_colored_set_and_forces(self, inst):
        g, initial = inst
        state = czf_run(g, initial)
        assert (state.colored, state.forces) == rescan_czf(g, initial)

    def test_long_chain_within_budget(self):
        # the odd vertices of a path force downwards from its top end, one
        # force per pass of the ascending scan: rescanning every initial
        # vertex per pass is quadratic here
        n = 20_000
        g = generate(FamilySpec("path", n))
        start = time.perf_counter()
        state = czf_run(g, range(1, n, 2))
        assert time.perf_counter() - start < 1.0
        assert state.succeeded(g)
        assert state.forces == tuple((v, v - 1) for v in range(n - 1, 0, -2))


class TestDeductionBridge:
    def test_p2(self):
        g = generate(FamilySpec("path", 2))
        s = deduction_to_cfms(g, Layout.standard([0]))
        assert s.actions == (("place", 0), ("slide", 0, 1))
        assert cfms_run(g, s).succeeded(g)

    def test_c4_adjacent(self):
        g = generate(FamilySpec("cycle", 4))
        s = deduction_to_cfms(g, Layout.standard([0, 1]))
        assert s.searcher_count() == 2
        assert len(s.slides()) == 2
        assert cfms_run(g, s).succeeded(g)

    def test_worked_tie_strands_searcher(self):
        # both 0 and 2 fire into 1; only the first fire becomes a slide
        g = worked_graph()
        s = deduction_to_cfms(g, Layout.standard([0, 2, 3, 5]))
        assert s.actions == (
            ("place", 0),
            ("place", 2),
            ("place", 3),
            ("place", 5),
            ("slide", 0, 1),
            ("slide", 3, 4),
            ("slide", 5, 6),
        )
        assert cfms_run(g, s).succeeded(g)

    def test_explicit_sequence(self):
        g = worked_graph()
        layout = Layout.standard([0, 2, 3, 5])
        seq = run_deduction(g, layout, "single-fire-canonical").history
        s = deduction_to_cfms(g, layout, seq)
        assert cfms_run(g, s).succeeded(g)

    def test_rejects_nonstandard(self):
        g = generate(FamilySpec("path", 3))
        with pytest.raises(ValueError, match="standard"):
            deduction_to_cfms(g, Layout({1: 2}))

    def test_rejects_wrong_sequence(self):
        g = generate(FamilySpec("path", 4))
        bogus = FiringSequence(({0: (2,)},))
        with pytest.raises(ValueError):
            deduction_to_cfms(g, Layout.standard([0, 2]), bogus)

    def test_random_successful_layouts_clear_everything(self):
        rng = random.Random(31)
        done = 0
        while done < 60:
            g = random_graph(rng, rng.randint(1, 7))
            support = rng.sample(range(g.n), rng.randint(1, g.n))
            layout = Layout.standard(support)
            if len(run_deduction(g, layout).protected) != g.n:
                continue
            done += 1
            state = cfms_run(g, deduction_to_cfms(g, layout))
            assert state.succeeded(g)
            assert state.ever_occupied == frozenset(range(g.n))
