"""Graph value, serialization, generator, and edit tests."""

from __future__ import annotations

import random

import pytest

from onemove.graphs import (
    FamilySpec,
    Graph,
    classify,
    connected_components,
    delete_pendent_edge,
    edit_edge,
    edge_key,
    generate,
    induced_subgraph,
    parse_edge_list,
    peel_pendants,
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
        assert adj[1] == [0, 2, 3, 4, 6]
        assert g.neighbors(6) == [1, 5]
        assert g.degree(1) == 5

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

    def test_delete_pendent_edge(self):
        g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
        h, relabel = delete_pendent_edge(g, 2, 3)
        assert h.n == 2
        assert h.edges == frozenset({(0, 1)})
        assert relabel == {0: 0, 1: 1}

    def test_delete_pendent_requires_leaf(self):
        g = generate(FamilySpec("cycle", 4))
        with pytest.raises(ValueError, match="pendent"):
            delete_pendent_edge(g, 0, 1)

    def test_delete_pendent_drops_other_incident_edges(self):
        g = parse_edge_list("5 4\n0 1\n1 2\n1 3\n3 4\n")
        h, relabel = delete_pendent_edge(g, 0, 1)
        assert h.n == 3
        assert h.edges == frozenset({(relabel[3], relabel[4])})

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
