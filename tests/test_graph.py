"""Graph primitives: components, diameter, simplicial and block structure."""

import math
import random
from itertools import combinations

import networkx as nx
import pytest

import bei
from bei import members
from bei.cutsets import check_bound
from bei.graph import _components, checked_vset, independence_number

from conftest import atlas, connected_atlas, full_corona, mixed_graphs, to_nx, vset


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


def test_graph_refuses_a_repeated_label():
    # an edge list names vertices by label, so "a a" would read back as a self-loop
    with pytest.raises(ValueError, match="vertex label 'a' is repeated"):
        bei.Graph(3, [(0, 1)], labels=["a", "b", "a"])
    with pytest.raises(ValueError, match="vertex label '1' is repeated"):
        bei.Graph(2, [(0, 1)], labels=[1, "1"])


def test_equal_graphs_hash_alike_whatever_their_labels():
    labelled = bei.Graph(3, [(0, 1)], labels=["a", "b", "c"])
    plain = bei.Graph(3, [(0, 1)])
    assert labelled == plain and labelled.labels != plain.labels
    assert hash(labelled) == hash(plain)
    assert len({labelled, plain}) == 1


HUGE = 10**4000  # 4001 digits


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: bei.Graph(HUGE), "vertex count <int of 4001 characters> is too large for a graph"),
        (lambda: bei.Graph(1, [(0, HUGE)]), "edge (0,<int of 4001 characters>) out of range for n=1"),
        (lambda: bei.Graph(1, [(HUGE, HUGE)]), "self-loop at vertex <int of 4001 characters>"),
        (lambda: bei.Graph(2, labels=["x" * 5000] * 2), "vertex label <str of 5000 characters> is repeated"),
        (lambda: checked_vset([-HUGE], "--cutset", 3), "--cutset holds a negative vertex: <int of 4002 characters>"),
        (lambda: checked_vset([HUGE], "L", 3), "L holds a vertex out of range for 3 vertices: <int of 4001 characters>"),
        (lambda: check_bound(HUGE), "<int of 4001 characters> vertices exceeds the enumeration bound 24"),
        # up to 40 characters a value is shown whole
        (lambda: bei.Graph(10**39), f"vertex count {10**39} is too large for a graph"),
        (lambda: bei.Graph(2, labels=["y" * 40] * 2), f"vertex label '{'y' * 40}' is repeated"),
    ],
    ids=["count", "edge", "self-loop", "label", "negative-vertex", "vertex-out-of-range", "bound", "count-40", "label-40"],
)
def test_a_refusal_shows_a_long_value_by_its_kind_and_length(refused, message):
    with pytest.raises(ValueError) as err:
        refused()
    assert str(err.value) == message


def test_graph_is_immutable():
    g = bei.path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(AttributeError):
        del g.adj


def test_vertex_set_helpers():
    assert checked_vset([0, 2, 5], "vertices", 6) == 0b100101
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


@pytest.mark.parametrize("n, source", [(3, -1), (3, 3), (0, 0)])
def test_distances_from_refuses_a_source_out_of_range(n, source):
    with pytest.raises(ValueError, match=rf"^vertex {source} out of range$"):
        bei.distances_from(bei.path_graph(n) if n else bei.Graph(0, []), source)


def test_simplicial_vertices_and_iv():
    assert bei.internal_vertex_count(bei.path_graph(4)) == 2
    for n in range(1, 6):
        assert bei.internal_vertex_count(bei.complete_graph(n)) == 0
    # in K_n with complete copies everywhere, exactly the base is internal
    for n in (2, 3):
        for h in (1, 2, 3):
            g = full_corona(bei.complete_graph(n), bei.complete_graph(h))
            assert bei.internal_vertex_count(g) == n
    assert bei.simplicial_vertices(bei.path_graph(3)) == vset([0, 2])


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


def test_independence_number_of_every_small_clique_path():
    # the simplicial-vertex rule against the largest independent vertex set
    # found among all subsets, on each clique path and a relabelled copy
    rng = random.Random(26)
    clique_paths = [g for g in connected_atlas(7) if bei.is_cm_closed(g)]
    assert len(clique_paths) == 43
    for g in clique_paths:
        want = max(
            s.bit_count()
            for s in range(1 << g.n)
            if all(g.adj[v] & s == 0 for v in members(s))
        )
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = bei.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert independence_number(g) == independence_number(relabelled) == want, g.edges()
    with pytest.raises(ValueError, match="not a chordal graph"):
        independence_number(bei.cycle_graph(4))


def test_independence_number_retests_a_vertex_only_when_a_neighbour_drops(monkeypatch):
    # a shuffled labelling would cost a label-order sweep per vertex taken;
    # the worklist makes at most n + 2m simplicial tests on any labelling
    n = 2000
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    g = bei.Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
    calls = 0
    is_clique = bei.graph._is_clique

    def counted(adj, mask):
        nonlocal calls
        calls += 1
        return is_clique(adj, mask)

    monkeypatch.setattr(bei.graph, "_is_clique", counted)
    assert independence_number(g) == n // 2
    assert calls <= n + 2 * len(g.edges())
