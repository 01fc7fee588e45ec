"""Graph primitives: components, diameter, cones, simplicial and block
structure."""

import math
import random
from itertools import combinations

import networkx as nx
import pytest

import bei
from bei import members, vset
from bei.graph import _components

from conftest import atlas, mixed_graphs, to_nx


def test_graph_construction_and_queries():
    g = bei.Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert members(g.adj[2]) == [1, 3]
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
    k3 = bei.complete_graph(3)
    assert len(_components(k3.adj, k3.full_mask)) == 1
    # path a-b-c-d minus b splits into {a} and {c,d}
    p4 = bei.path_graph(4)
    assert _components(p4.adj, vset([0, 2, 3])) == [vset([0]), vset([2, 3])]
    assert _components(p4.adj, 0) == []


def test_components_of_corona_counterexample(square_leaves_product):
    g = square_leaves_product
    assert len(_components(g.adj, g.full_mask & ~vset([0, 2]))) == 4


def test_components_partition_and_order():
    g = bei.Graph(6, [(4, 5), (0, 1)])
    comps = _components(g.adj, g.full_mask)
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
    via_corona = bei.l_corona(bei.CoronaSpec(bei.complete_graph(n), 1, h))
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
            g = bei.corona(bei.complete_graph(n), bei.complete_graph(h))
            assert bei.internal_vertex_count(g) == n
    assert bei.simplicial_vertices(bei.path_graph(3)) == vset([0, 2])


def test_is_complete():
    assert bei.is_complete(bei.complete_graph(4))
    assert bei.is_complete(bei.complete_graph(1))
    assert not bei.is_complete(bei.path_graph(3))


def block_structure(g):
    """(is a block graph, is a clique path) from networkx's biconnected
    components and articulation points."""
    nxg = to_nx(g)
    blocks = [set(b) for b in nx.biconnected_components(nxg)]
    cuts = set(nx.articulation_points(nxg))
    block_graph = all(nxg.has_edge(u, v) for b in blocks for u, v in combinations(b, 2))
    clique_path = (
        block_graph
        and all(sum(c in b for b in blocks) == 2 for c in cuts)
        and all(len(b & cuts) <= 2 for b in blocks)
    )
    return block_graph, clique_path


def random_block_graph(rng):
    """Cliques of 2-5 vertices glued along a random tree, relabelled; half
    of them get one extra edge, which mostly breaks the block structure."""
    edges, n = [], 1
    for _ in range(rng.randrange(1, 9)):
        clique = [rng.randrange(n), *range(n, n + rng.randrange(1, 5))]
        n = clique[-1] + 1
        edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
    perm = rng.sample(range(n), n)
    g = bei.Graph(n, [(perm[u], perm[v]) for u, v in edges])
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    if missing and rng.random() < 0.5:
        g = bei.Graph(n, g.edges() + [rng.choice(missing)])
    return g


def assert_block_predicates_match_networkx(g):
    if g.n == 0 or not nx.is_connected(to_nx(g)):
        for predicate in (bei.is_block_graph, bei.is_cm_closed):
            with pytest.raises(ValueError, match="connected graph"):
                predicate(g)
        return
    assert (bei.is_block_graph(g), bei.is_cm_closed(g)) == block_structure(g), g.edges()


def test_block_predicates_match_networkx_on_the_atlas():
    for g in atlas():
        assert_block_predicates_match_networkx(g)


def test_block_predicates_match_networkx_on_mixed_graphs():
    for g in mixed_graphs():
        assert_block_predicates_match_networkx(g)


def test_block_predicates_match_networkx_on_random_block_graphs():
    rng = random.Random(12)
    graphs = [random_block_graph(rng) for _ in range(400)]
    assert sum(map(bei.is_block_graph, graphs)) > 200
    for g in graphs:
        assert_block_predicates_match_networkx(g)


def test_paths_are_clique_paths():
    # P_3000 would exhaust the recursion limit of a depth-first search
    for n in (1, 2, 3, 6, 3000):
        assert bei.is_block_graph(bei.path_graph(n))
        assert bei.is_cm_closed(bei.path_graph(n))


def test_complete_graphs_are_clique_paths():
    for n in range(1, 6):
        assert bei.is_block_graph(bei.complete_graph(n))
        assert bei.is_cm_closed(bei.complete_graph(n))


def test_block_graphs_that_are_not_clique_paths():
    # the claw's centre lies in three blocks
    star = bei.Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert bei.is_block_graph(star)
    assert not bei.is_cm_closed(star)
    # the triangle holds three vertices that each lie in two blocks
    net = bei.Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    assert bei.is_block_graph(net)
    assert not bei.is_cm_closed(net)


def test_cycles_and_diamonds_are_not_block_graphs():
    # every candidate of a cycle is an edge, and the n-th one passes n - 1
    for g in (bei.cycle_graph(4), bei.cycle_graph(5), bei.cycle_graph(3000)):
        assert not bei.is_block_graph(g) and not bei.is_cm_closed(g)
    # a diamond whose first edge is its chord: the candidate is no clique
    chord_first = bei.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    # a diamond whose first edge is on its rim: two triangles, 2 + 2 > 3
    rim_first = bei.Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    for g in (chord_first, rim_first):
        assert not bei.is_block_graph(g) and not bei.is_cm_closed(g)


def test_block_predicates_require_a_connected_graph():
    for g in (bei.Graph(0), bei.Graph(3, [(0, 1)])):
        for predicate in (bei.is_block_graph, bei.is_cm_closed):
            with pytest.raises(ValueError, match="connected graph"):
                predicate(g)


def test_cm_closed_examples():
    assert bei.is_cm_closed(bei.path_graph(5))
    assert bei.is_cm_closed(bei.complete_graph(4))
    # two triangles sharing a vertex form a clique path
    bowtie = bei.Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert bei.is_cm_closed(bowtie)
