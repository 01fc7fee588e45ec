"""Graph primitives: components, diameter, cones, simplicial and block
structure."""

import math

import networkx as nx
import pytest

import bei
from bei import members, vset

from conftest import mixed_graphs, to_nx


def test_graph_construction_and_queries():
    g = bei.Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(1) == 2
    assert g.neighbors(2) == [1, 3]
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        bei.Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        bei.Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        bei.Graph(-1)
    with pytest.raises(ValueError):
        bei.Graph(2, [], labels=["a"])


def test_graph_is_immutable():
    g = bei.path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(AttributeError):
        del g.adj


def test_vertex_set_helpers():
    assert vset([0, 2, 5]) == 0b100101
    assert members(0b100101) == [0, 2, 5]
    assert list(bei.iter_members(0)) == []


def test_components_trivial_and_examples():
    assert len(bei.components(bei.complete_graph(3))) == 1
    # path a-b-c-d minus b splits into {a} and {c,d}
    p4 = bei.path_graph(4)
    assert bei.components(p4, vset([1])) == [vset([0]), vset([2, 3])]
    assert bei.components(p4, p4.full_mask) == []


def test_components_of_corona_counterexample(square_leaves_product):
    assert len(bei.components(square_leaves_product, vset([0, 2]))) == 4


def test_components_partition_and_order():
    g = bei.Graph(6, [(4, 5), (0, 1)])
    comps = bei.components(g)
    assert comps == [vset([0, 1]), vset([2]), vset([3]), vset([4, 5])]
    total = 0
    for c in comps:
        assert total & c == 0
        total |= c
    assert total == g.full_mask


def test_diameter():
    for n in range(2, 6):
        assert bei.diameter(bei.complete_graph(n)) == 1
    assert bei.diameter(bei.complete_graph(1)) == 0
    assert bei.diameter(bei.path_graph(5)) == 4
    assert bei.diameter(bei.Graph(3, [(0, 1)])) == math.inf
    assert bei.diameter(bei.Graph(0)) == 0


def test_diameter_is_the_largest_bfs_distance():
    cases = mixed_graphs()
    assert sum(not bei.is_connected(g) for g in cases) > 30
    for g in cases:
        far = max((max(bei.distances_from(g, v)) for v in range(g.n)), default=0)
        assert bei.diameter(g) == far, bei.to_graph6(g)


def test_distances_from():
    p4 = bei.path_graph(4)
    assert bei.distances_from(p4, 0) == [0, 1, 2, 3]
    g = bei.Graph(3, [(0, 1)])
    assert bei.distances_from(g, 0) == [0, 1, math.inf]


def test_union_cone_join():
    assert bei.cone(bei.complete_graph(1)) == bei.complete_graph(2)
    assert bei.cone(bei.complete_graph(3)) == bei.complete_graph(4)
    # cone over K_{n-1} + H is the complete base with one copy attached
    n = 4
    h = bei.path_graph(3)
    union = bei.Graph(
        n - 1 + h.n,
        bei.complete_graph(n - 1).edges() + [(u + n - 1, v + n - 1) for u, v in h.edges()],
    )
    via_cone = bei.cone(union)
    via_corona = bei.l_corona(bei.CoronaSpec(bei.complete_graph(n), 1, h))[0]
    assert nx.is_isomorphic(to_nx(via_cone), to_nx(via_corona))


def test_cone_diameter_at_most_two():
    for g in (bei.path_graph(5), bei.Graph(4, [(0, 1)]), bei.Graph(3)):
        assert bei.diameter(bei.cone(g)) <= 2


def test_simplicial_vertices_and_iv():
    assert bei.internal_vertex_count(bei.path_graph(4)) == 2
    for n in range(1, 6):
        assert bei.internal_vertex_count(bei.complete_graph(n)) == 0
    # in K_n with complete copies everywhere, exactly the base is internal
    for n in (2, 3):
        for h in (1, 2, 3):
            g = bei.corona(bei.complete_graph(n), bei.complete_graph(h))[0]
            assert bei.internal_vertex_count(g) == n
    assert bei.simplicial_vertices(bei.path_graph(3)) == vset([0, 2])


def test_is_complete():
    assert bei.is_complete(bei.complete_graph(4))
    assert bei.is_complete(bei.complete_graph(1))
    assert not bei.is_complete(bei.path_graph(3))


def test_block_decomposition_path():
    for n in range(2, 7):
        dec = bei.block_decomposition(bei.path_graph(n))
        assert len(dec.blocks) == n - 1
        assert dec.is_clique_path
        # the blocks of a path come out in path order
        for a, b in zip(dec.blocks, dec.blocks[1:]):
            assert (a & b).bit_count() == 1
        assert dec.cut_vertices == vset(range(1, n - 1))


def test_block_decomposition_complete_and_single_vertex():
    dec = bei.block_decomposition(bei.complete_graph(5))
    assert dec.blocks == (bei.complete_graph(5).full_mask,)
    assert dec.is_clique_path
    dec1 = bei.block_decomposition(bei.complete_graph(1))
    assert dec1.blocks == (1,) and dec1.is_clique_path


def test_block_decomposition_star_not_clique_path():
    star = bei.Graph(4, [(0, 1), (0, 2), (0, 3)])
    dec = bei.block_decomposition(star)
    assert len(dec.blocks) == 3
    assert dec.cut_vertices == 1
    assert not dec.is_clique_path
    assert bei.is_block_graph(star)
    assert not bei.is_cm_closed(star)


def test_block_decomposition_cycle():
    dec = bei.block_decomposition(bei.cycle_graph(4))
    assert dec.blocks == (bei.cycle_graph(4).full_mask,)
    assert not dec.is_clique_path  # single block but not a clique
    assert not bei.is_block_graph(bei.cycle_graph(4))


def test_block_decomposition_requires_connected():
    with pytest.raises(ValueError):
        bei.block_decomposition(bei.Graph(3, [(0, 1)]))


def test_cm_closed_examples():
    assert bei.is_cm_closed(bei.path_graph(5))
    assert bei.is_cm_closed(bei.complete_graph(4))
    # two triangles sharing a vertex form a clique path
    bowtie = bei.Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert bei.is_cm_closed(bowtie)
