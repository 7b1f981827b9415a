"""Graph value, serialization, generator, and edit tests."""

from __future__ import annotations

import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onemove import graphs
from onemove.exact import cfms_exact
from onemove.graphs import (
    FamilySpec,
    Graph,
    classify,
    connected_components,
    edit_edge,
    edge_key,
    generate,
    induced_subgraph,
    parse_edge_list,
    peel_leaves,
    strong_product_k2,
    subdivide_all,
    write_edge_list,
)

# The worked 7-vertex example used throughout the test suite.
WORKED = "7 11\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n1 3\n5 6\n1 6\n0 2\n"


def worked_graph() -> Graph:
    return parse_edge_list(WORKED)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return Graph(n, frozenset(edges))


class TestGraphValue:
    def test_edges_normalized(self):
        g = Graph(3, frozenset({(2, 0), (1, 2)}))
        assert g.edges == frozenset({(0, 2), (1, 2)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 3)}))

    def test_roles_must_cover(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 1)}), roles={0: "base"})

    def test_edge_role_on_missing_edge(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 1)}), edge_roles={(1, 2): "base-edge"})

    def test_adjacency(self):
        g = worked_graph()
        adj = g.adjacency()
        assert list(adj[1]) == [0, 2, 3, 4, 6]
        assert g.neighbors(6) == [1, 5]
        assert g.degree(1) == 5

    def test_vertex_lookups_reject_out_of_range(self):
        g = worked_graph()
        for v in (-1, 7):
            with pytest.raises(ValueError):
                g.degree(v)
            with pytest.raises(ValueError):
                g.neighbors(v)

    def test_hashable_with_roles(self):
        g = subdivide_all(Graph(2, [(0, 1)]))
        assert g.roles is not None
        assert hash(g) == hash(subdivide_all(Graph(2, [(0, 1)])))
        assert {g, worked_graph()} == {worked_graph(), subdivide_all(Graph(2, [(0, 1)]))}


class TestParse:
    def test_worked_example(self):
        g = worked_graph()
        assert g.n == 7
        assert g.m == 11
        assert g.has_edge(1, 6)
        assert not g.has_edge(0, 6)

    def test_line_numbers_in_errors(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_edge_list("3 2\n0 1\n0 9\n")

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_edge_list("3 2\n0 1\n1 0\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("3\n")

    def test_missing_edges(self):
        with pytest.raises(ValueError, match="promises"):
            parse_edge_list("3 2\n0 1\n")

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a triangle\n3 3\n\n0 1\n1 2\n0 2\n")
        assert g.m == 3

    def test_roles_round_trip(self):
        g = strong_product_k2(generate(FamilySpec("cycle", 3)))
        text = write_edge_list(g)
        assert parse_edge_list(text) == g
        assert "role 0 base" in text
        assert "edgerole 0 1 base-edge" in text

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 9))
            assert parse_edge_list(write_edge_list(g)) == g

    def test_trailing_garbage(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_edge_list("2 1\n0 1\nwhat is this\n")


@st.composite
def instance_lines(draw):
    """(graph, preoccupied vertices or None, lines of its instance text):
    a random graph, often with vertex and edge roles, and a preoccupied
    line, listed in random order, at a random place among the trailers."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    roles = None
    if n and draw(st.booleans()):
        roles = {v: draw(st.sampled_from(graphs.VERTEX_ROLES)) for v in range(n)}
    edge_roles = {e: draw(st.sampled_from(graphs.EDGE_ROLES)) for e in sorted(edges) if draw(st.booleans())}
    g = Graph(n, frozenset(edges), roles, edge_roles or None)
    lines = write_edge_list(g).splitlines()
    pre = None
    if draw(st.booleans()):
        listed = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
        pre = frozenset(listed)
        lines.insert(draw(st.integers(1 + g.m, len(lines))), " ".join(["preoccupied", *map(str, listed)]))
    return g, pre, lines


# Lines that no position in an instance accepts.
GARBAGE = ("what is this", "x", "1 2 3 4 5", "role x base", "role 99 base", "edgerole 0 0 plain", "preoccupied x", "preoccupied 99")


class TestInstanceReader:
    def test_preoccupied_trailer(self):
        text = "3 2\n0 1\n1 2\npreoccupied 2 0\nrole 0 base\nrole 1 plain\nrole 2 middle\n"
        g, pre = graphs.parse_instance(text)
        assert pre == frozenset({0, 2})
        assert g == Graph(3, frozenset({(0, 1), (1, 2)}), {0: "base", 1: "plain", 2: "middle"})

    def test_no_preoccupied_line_reads_as_none(self):
        assert graphs.parse_instance(WORKED) == (worked_graph(), None)
        assert graphs.parse_instance("2 1\n0 1\npreoccupied\n")[1] == frozenset()

    @pytest.mark.parametrize(
        "text, error",
        [
            # Errors below a preoccupied line cite the file's own line.
            ("3 2\npreoccupied 0\n0 1\n1 9\n", "line 2: expected integer edge 'u v', got 'preoccupied 0'"),
            ("2 1\n0 1\npreoccupied 0\nwhat is this\n", "line 4: unrecognized trailing line 'what is this'"),
            # The preoccupied line is a trailer, once.
            ("preoccupied 0\n2 1\n0 1\n", "line 1: expected integer header 'n m', got 'preoccupied 0'"),
            ("3 2\n0 1\npreoccupied 2\n1 2\n", "line 3: expected integer edge 'u v', got 'preoccupied 2'"),
            ("2 1\n0 1\npreoccupied 0\n\npreoccupied 1\n", "line 5: second preoccupied line"),
            ("2 1\n0 1\npreoccupied 1 2\n", "line 3: preoccupied vertex 2 out of range"),
            ("2 1\n0 1\npreoccupied -1\n", "line 3: preoccupied vertex -1 out of range"),
            ("2 1\n0 1\npreoccupied 0 1 0\n", "line 3: repeated preoccupied vertex 0"),
            ("2 1\n0 1\nedgerole 0 0 plain\n", "line 3: edge role on missing edge (0, 0)"),
        ],
    )
    def test_refusal_cites_its_line(self, text, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            graphs.parse_instance(text)

    def test_edge_list_refuses_preoccupied_line(self):
        with pytest.raises(ValueError, match="^line 4: a plain edge list takes no preoccupied line$"):
            parse_edge_list("2 1\n0 1\n\npreoccupied 0\n")

    def test_vertex_ceiling(self):
        assert graphs.parse_instance(f"{graphs.MAX_VERTICES} 0\n")[0].n == graphs.MAX_VERTICES
        error = f"^line 2: {graphs.MAX_VERTICES + 1} vertices refused: the limit is {graphs.MAX_VERTICES}$"
        with pytest.raises(ValueError, match=error):
            graphs.parse_instance(f"# huge\n{graphs.MAX_VERTICES + 1} 0\n")

    @settings(max_examples=200, deadline=None)
    @given(instance_lines(), st.data())
    def test_round_trip_and_garbage_lines(self, case, data):
        g, pre, lines = case
        assert graphs.parse_instance("\n".join(lines) + "\n") == (g, pre)
        k = data.draw(st.integers(1, len(lines)))
        bad = lines[: k - 1] + [data.draw(st.sampled_from(GARBAGE))] + lines[k:]
        with pytest.raises(ValueError, match=f"^line {k}: "):
            graphs.parse_instance("\n".join(bad) + "\n")


class TestGenerate:
    def test_cycle4(self):
        g = generate(FamilySpec("cycle", 4))
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_path_and_complete(self):
        assert generate(FamilySpec("path", 1)).m == 0
        assert generate(FamilySpec("complete", 5)).m == 10
        assert generate(FamilySpec("star", 5)).degree(0) == 4

    def test_wheel(self):
        g = generate(FamilySpec("wheel", 6))
        assert g.n == 6
        assert g.degree(0) == 5
        assert all(g.degree(v) == 3 for v in range(1, 6))
        with pytest.raises(ValueError):
            generate(FamilySpec("wheel", 3))

    def test_star_plus_matching(self):
        g = generate(FamilySpec("star_plus_matching", 3))
        assert g.n == 6
        assert g.degree(0) == 5
        assert g.has_edge(1, 4) and g.has_edge(2, 5)
        assert not g.has_edge(1, 5)
        assert g.m == 7

    def test_k4_minus_star(self):
        g = generate(FamilySpec("k4_minus_star", 2))
        assert g.n == 10
        # hub with bare leaf plus two gadget leaves
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        # each gadget is K4 minus the leaf-to-far edge
        for leaf, far in ((2, 5), (6, 9)):
            assert not g.has_edge(leaf, far)
            assert g.degree(far) == 2

    def test_bowtie(self):
        g = generate(FamilySpec("bowtie"))
        assert g.n == 5 and g.m == 6
        assert g.degree(2) == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate(FamilySpec("hypercube", 3))


class TestEdits:
    def test_strong_product_c3(self):
        g = strong_product_k2(generate(FamilySpec("cycle", 3)))
        assert g.n == 6
        assert g.m == 15
        base_edges = [e for e, tag in (g.edge_roles or {}).items() if tag == "base-edge"]
        assert sorted(base_edges) == [(0, 1), (2, 3), (4, 5)]
        assert all(tag == "base" for tag in (g.roles or {}).values())

    def test_strong_product_degree(self):
        g = generate(FamilySpec("path", 4))
        h = strong_product_k2(g)
        for v in range(g.n):
            assert h.degree(2 * v) == 2 * g.degree(v) + 1
            assert h.degree(2 * v + 1) == 2 * g.degree(v) + 1

    def test_subdivide_counts(self):
        g = worked_graph()
        h = subdivide_all(g)
        assert h.n == g.n + g.m
        assert h.m == 2 * g.m
        middles = [v for v, tag in h.roles.items() if tag == "middle"]
        assert len(middles) == g.m
        for u in middles:
            for v in middles:
                if u != v:
                    assert not h.has_edge(u, v)

    def test_edit_add_remove(self):
        g = generate(FamilySpec("path", 3))
        h = edit_edge(g, 0, 2, "add")
        assert h.m == 3
        assert edit_edge(h, 0, 2, "remove") == g
        with pytest.raises(ValueError):
            edit_edge(g, 0, 1, "add")
        with pytest.raises(ValueError):
            edit_edge(g, 0, 2, "remove")

    def test_contract(self):
        g = generate(FamilySpec("cycle", 3))
        h = edit_edge(g, 1, 2, "contract")
        assert h.n == 2
        assert h.edges == frozenset({(0, 1)})

    def test_contract_dedups(self):
        # square with a diagonal: contracting the diagonal gives a triangle
        # with parallel edges merged
        g = parse_edge_list("4 5\n0 1\n1 2\n2 3\n0 3\n0 2\n")
        h = edit_edge(g, 0, 2, "contract")
        assert h.n == 3
        assert h.m == 2

    def test_induced_subgraph(self):
        g = worked_graph()
        h, relabel = induced_subgraph(g, [0, 1, 2, 3])
        assert h.n == 4
        assert h.edges == frozenset({(0, 1), (1, 2), (0, 3), (1, 3), (0, 2)})
        assert relabel[3] == 3


class TestClassify:
    def test_worked_graph(self):
        c = classify(worked_graph())
        assert c.is_connected
        assert not c.is_tree
        assert not c.is_unicyclic
        assert not c.is_cactus

    def test_tree(self):
        c = classify(generate(FamilySpec("star", 5)))
        assert c.is_tree and c.is_connected and c.is_cactus
        assert c.cycles == ()

    def test_cycle(self):
        c = classify(generate(FamilySpec("cycle", 5)))
        assert c.is_unicyclic and c.is_cactus and not c.is_tree
        assert c.cycles == ((0, 1, 2, 3, 4),)

    def test_bowtie_cactus(self):
        c = classify(generate(FamilySpec("bowtie")))
        assert c.is_cactus and not c.is_unicyclic
        assert len(c.cycles) == 2
        assert all(len(cy) == 3 for cy in c.cycles)

    def test_k4_not_cactus(self):
        c = classify(generate(FamilySpec("complete", 4)))
        assert not c.is_cactus
        assert c.cycles == ()

    def test_cubic(self):
        assert classify(generate(FamilySpec("complete", 4))).is_cubic
        assert not classify(generate(FamilySpec("cycle", 4))).is_cubic

    def test_components(self):
        g = parse_edge_list("5 2\n0 1\n2 3\n")
        c = classify(g)
        assert not c.is_connected
        assert c.components == ((0, 1), (2, 3), (4,))
        assert connected_components(g) == [[0, 1], [2, 3], [4]]

    def test_disconnected_cactus_forest(self):
        g = parse_edge_list("7 7\n0 1\n1 2\n0 2\n3 4\n4 5\n5 6\n3 6\n")
        c = classify(g)
        assert c.is_cactus
        assert c.cycles == ((0, 1, 2), (3, 4, 5, 6))

    def test_two_cycles_sharing_vertex(self):
        g = generate(FamilySpec("bowtie"))
        c = classify(g)
        assert c.cycles == ((0, 1, 2), (2, 3, 4))

    def test_empty_graph(self):
        c = classify(Graph(0, frozenset()))
        assert not c.is_connected

    def test_single_vertex(self):
        c = classify(Graph(1, frozenset()))
        assert c.is_connected and c.is_tree

    def test_edge_key(self):
        assert edge_key(3, 1) == (1, 3)
        with pytest.raises(ValueError):
            edge_key(2, 2)


class TestMemo:
    def test_rows_are_built_once_and_cannot_be_mutated(self):
        g = worked_graph()
        adj = g.adjacency()
        assert g.adjacency() is adj
        with pytest.raises(AttributeError):
            adj[1].append(5)
        with pytest.raises(TypeError):
            adj[1] = ()
        assert list(g.adjacency()[1]) == [0, 2, 3, 4, 6]
        assert g.neighbors(1) == [0, 2, 3, 4, 6]

    def test_equal_graphs_built_separately_share_no_memo(self):
        a, b = worked_graph(), worked_graph()
        assert a == b and hash(a) == hash(b)
        assert a.adjacency() is not b.adjacency()
        assert classify(a) is not classify(b)
        assert classify(a) == classify(b)
        assert a._memo is not b._memo
        assert "_memo" not in repr(a)

    def test_classification_runs_once_per_graph(self, monkeypatch):
        calls = []
        original = graphs._classify

        def counted(g):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(graphs, "_classify", counted)
        g = worked_graph()
        assert classify(g) is classify(g)
        assert connected_components(g) == [list(range(7))]
        assert calls == [7]
        classify(worked_graph())
        assert calls == [7, 7]


def two_pass_classify(g):
    """Reference classification: components by breadth-first search, then
    blocks by a separate recursive lowpoint search, cycles walked from
    their least vertex towards its smaller neighbor."""
    adj = [sorted(w for e in g.edges if v in e for w in e if w != v) for v in range(g.n)]
    comps, seen = [], set()
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        comp, queue = [s], deque([s])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    disc, low, stack, blocks = {}, {}, [], []

    def visit(v, parent):
        disc[v] = low[v] = len(disc)
        for w in adj[v]:
            if w == parent:
                continue
            if w not in disc:
                stack.append((v, w))
                visit(w, v)
                low[v] = min(low[v], low[w])
                if low[w] >= disc[v]:
                    block = []
                    while True:
                        block.append(stack.pop())
                        if block[-1] == (v, w):
                            break
                    blocks.append(block)
            elif disc[w] < disc[v]:
                stack.append((v, w))
                low[v] = min(low[v], disc[w])

    for s in range(g.n):
        if s not in disc:
            visit(s, -1)
    cactus, cycles = True, []
    for block in blocks:
        verts = {w for e in block for w in e}
        if len(block) == 1:
            continue
        if len(block) != len(verts):
            cactus = False
            continue
        ring = {w: sorted(x for e in block for x in e if w in e and x != w) for w in verts}
        order = [min(verts)]
        nxt = ring[order[0]][0]
        while nxt != order[0]:
            order.append(nxt)
            nxt = next(x for x in ring[nxt] if x != order[-2])
        cycles.append(tuple(order))
    connected = len(comps) == 1
    return graphs.GraphClass(
        is_connected=connected,
        is_tree=connected and g.m == g.n - 1,
        is_unicyclic=connected and g.m == g.n,
        is_cactus=cactus,
        is_cubic=g.n > 0 and all(len(row) == 3 for row in adj),
        components=tuple(comps),
        cycles=tuple(sorted(cycles)) if cactus else (),
    )


@st.composite
def structured_graphs(draw):
    """Graphs on up to 14 vertices: random edge sets (often disconnected),
    forests, and cactus forests, under a random relabeling."""
    n = draw(st.integers(0, 14))
    kind = draw(st.sampled_from(("random", "forest", "cactus")))
    edges = set()
    if kind == "random":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    else:
        v = 1
        while v < n:
            if draw(st.integers(0, 3)) == 0:
                v += 1  # v roots a new component
                continue
            anchor = draw(st.integers(0, v - 1))
            size = draw(st.integers(2, min(n - v, 5))) if kind == "cactus" and n - v >= 2 else 1
            if size == 1:
                edges.add((anchor, v))
            else:
                ring = [anchor, *range(v, v + size)]
                edges |= {(ring[i - 1], ring[i]) for i in range(len(ring))}
            v += size
    perm = draw(st.permutations(range(n)))
    return Graph(n, frozenset(edge_key(perm[a], perm[b]) for a, b in edges))


class TestOneWalkClassify:
    @settings(max_examples=400, deadline=None)
    @given(structured_graphs())
    def test_matches_two_pass_reference(self, g):
        assert classify(g) == two_pass_classify(g)


def peel_pendants(g):
    """peel_leaves on all of g with no vertex occupied: the peeled pairs
    (degree-1 end, other end) and the residual."""
    adj = {v: set(ws) for v, ws in enumerate(g.adjacency())}
    steps = peel_leaves(adj, set(), set(adj))
    assert all(rule == 1 for rule, _, _ in steps)
    return [(v, u) for _, v, u in steps], adj


class TestPeelPendants:
    def test_lone_edge_orients_from_smaller_end(self):
        assert peel_pendants(Graph(2, frozenset({(0, 1)}))) == ([(0, 1)], {})

    def test_least_edge_first_and_residual(self):
        # a triangle 0-1-2 with a tail 2-3-4 and an isolated vertex 5
        g = Graph(6, frozenset({(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)}))
        peeled, residual = peel_pendants(g)
        assert peeled == [(4, 3)]
        assert residual == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 5: set()}

    def test_path_peels_from_its_least_pendant_edge(self):
        peeled, residual = peel_pendants(generate(FamilySpec("path", 5)))
        assert peeled == [(0, 1), (2, 3)]
        assert residual == {4: set()}


@st.composite
def hung_leaf_instances(draw):
    """A random graph on up to 10 vertices, cactus or not and possibly
    disconnected, with a leaf hung at a random vertex, and a preoccupied
    set of density 0.1 to 0.5."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(1, 9)
    density = rng.uniform(0.2, 0.8)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    edges.add((rng.randrange(n), n))
    share = rng.uniform(0.1, 0.5)
    return Graph(n + 1, frozenset(edges)), frozenset(v for v in range(n + 1) if rng.random() < share)


class TestPeelLeaves:
    def test_lowest_rule_first(self):
        # Leaf 0 and its neighbor 1 are occupied (rule 2), leaf 2 is not
        # but 1 is (rule 4); once 0 is gone, occupied 1 is a leaf (rule 3).
        adj = {0: {1}, 1: {0, 2}, 2: {1}, 3: set()}
        pre = {0, 1}
        assert peel_leaves(adj, pre, set(adj)) == [(2, 0, 1), (3, 1, 2)]
        assert (adj, pre) == ({3: set()}, set())

    def test_rule_one_then_slide_in(self):
        adj = {v: set(ws) for v, ws in enumerate(generate(FamilySpec("path", 4)).adjacency())}
        assert peel_leaves(adj, {3}, set(adj)) == [(1, 0, 1), (3, 3, 2)]
        assert adj == {}

    def test_only_dirty_vertices_are_scanned(self):
        adj = {0: {1}, 1: {0, 2}, 2: {1}}
        dirty = {2}
        assert peel_leaves(adj, set(), dirty) == [(1, 2, 1)]
        assert (adj, dirty) == ({0: set()}, {0, 2})

    @settings(max_examples=1000, deadline=None)
    @given(hung_leaf_instances())
    def test_rule_one_steps_plus_residual_value(self, inst):
        # cfms(G, P) is the count of rule-1 steps plus cfms of the
        # residual with the occupied vertices left in it, on any graph.
        g, pre = inst
        adj = {v: set(ws) for v, ws in enumerate(g.adjacency())}
        live = set(pre)
        steps = peel_leaves(adj, live, set(adj))
        assert all(len(ws) != 1 for ws in adj.values())
        rest, relabel = induced_subgraph(g, adj)
        placed = sum(rule == 1 for rule, _, _ in steps)
        residual = cfms_exact(rest, frozenset(relabel[v] for v in live)).value
        assert cfms_exact(g, pre).value == placed + residual
