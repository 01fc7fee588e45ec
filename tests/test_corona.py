"""Corona constructors, the cutset decomposition, and the gadgets."""

import random

import networkx as nx
import pytest

import bei
from bei import members, vset

from conftest import (
    assert_matches_naive,
    check_cutset_structure,
    decompose_cutset,
    factors_pendants,
    naive_ncomp,
    random_connected_graph,
    to_nx,
)


def test_corona_tiny_cases():
    p2 = bei.corona(bei.complete_graph(1), bei.complete_graph(1))
    assert p2 == bei.path_graph(2)
    p4 = bei.corona(bei.complete_graph(2), bei.complete_graph(1))
    assert nx.is_isomorphic(to_nx(p4), to_nx(bei.path_graph(4)))


def test_corona_counts():
    g = bei.corona(bei.complete_graph(3), bei.path_graph(2))
    assert g.n == 9
    assert g.m == 3 + 3 * (2 + 1) == 12


def test_corona_count_formulas_random():
    rng = random.Random(5)
    for _ in range(25):
        base = random_connected_graph(rng, rng.randrange(1, 6))
        pend = random_connected_graph(rng, rng.randrange(1, 5))
        prod = bei.corona(base, pend)
        assert prod.n == base.n * (1 + pend.n)
        assert prod.m == base.m + base.n * (pend.n + pend.m)


def test_corona_not_commutative():
    a, b = bei.complete_graph(2), bei.complete_graph(3)
    assert bei.corona(a, b).n != bei.corona(b, a).n


def test_l_corona_matches_corona_at_full_attach_set():
    base, pend = bei.path_graph(3), bei.complete_graph(2)
    spec = bei.CoronaSpec(base, base.full_mask, pend)
    assert bei.l_corona(spec) == bei.corona(base, pend)


def test_l_corona_layout_and_labels():
    base = bei.Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    spec = bei.CoronaSpec(base, vset([0, 2]), bei.complete_graph(1))
    g = bei.l_corona(spec)
    assert g.n == 5
    assert g.labels == ("a", "b", "c", "0@a", "0@c")
    assert spec.copy_start(0) == 3 and spec.copy_start(2) == 4
    with pytest.raises(ValueError):
        spec.copy_start(1)


def test_l_corona_single_attach_is_cone():
    # one copy on K_n is the cone over K_{n-1} plus the pendant
    for n in (2, 3, 4):
        h = bei.path_graph(3)
        prod = bei.l_corona(bei.CoronaSpec(bei.complete_graph(n), 1, h))
        union = bei.Graph(
            n - 1 + h.n,
            bei.complete_graph(n - 1).edges()
            + [(u + n - 1, v + n - 1) for u, v in h.edges()],
        )
        assert nx.is_isomorphic(to_nx(prod), to_nx(bei.cone(union)))


def test_spec_validation():
    with pytest.raises(ValueError):
        bei.CoronaSpec(bei.path_graph(2), 0, bei.complete_graph(1))
    with pytest.raises(ValueError):
        bei.CoronaSpec(bei.path_graph(2), vset([5]), bei.complete_graph(1))
    with pytest.raises(ValueError):
        bei.CoronaSpec(bei.Graph(3, [(0, 1)]), 1, bei.complete_graph(1))
    with pytest.raises(ValueError):
        bei.CoronaSpec(bei.path_graph(2), 1, bei.Graph(2))
    with pytest.raises(ValueError):
        bei.CoronaSpec(base=bei.path_graph(2), attach_set=1, pendant=bei.Graph(2))


def test_decompose_worked_example(square_leaves_spec, square_leaves_product):
    dec = decompose_cutset(square_leaves_spec, vset([0, 2]))
    assert dec.t0 == vset([0, 2])
    assert all(part == 0 for _, part in dec.tv)
    assert dec.nonempty_set == 0
    assert dec.predicted_components == 4
    want = naive_ncomp(square_leaves_product, {0, 2})
    assert dec.predicted_components == want


def test_decompose_empty_subset(square_leaves_spec):
    assert decompose_cutset(square_leaves_spec, 0).predicted_components == 1


def test_decompose_attach_vertex_plus_pendant_cutset():
    # removing an attach vertex together with a cutset of its copy splits
    # into the base part and the pendant part counts
    base = bei.path_graph(3)
    pend = bei.path_graph(3)
    spec = bei.CoronaSpec(base, vset([0]), pend)
    t = vset([0]) | (vset([1]) << spec.copy_start(0))  # {v} + middle of the copy
    dec = decompose_cutset(spec, t)
    want = naive_ncomp(base, {0}) + naive_ncomp(pend, {1})
    assert dec.predicted_components == want
    prod = bei.l_corona(spec)
    assert dec.predicted_components == naive_ncomp(prod, set(members(t)))


def test_decompose_matches_bfs_on_arbitrary_subsets():
    rng = random.Random(11)
    for _ in range(40):
        base = random_connected_graph(rng, rng.randrange(2, 5))
        pend = random_connected_graph(rng, rng.randrange(1, 4))
        attach = rng.randrange(1, base.full_mask + 1)
        spec = bei.CoronaSpec(base, attach, pend)
        prod = bei.l_corona(spec)
        for _ in range(30):
            t = rng.randrange(1 << prod.n)
            dec = decompose_cutset(spec, t)
            removed = set(members(t))
            assert dec.predicted_components == naive_ncomp(prod, removed)
            assert dec.reassemble(spec) == t


def test_decompose_rejects_out_of_range(square_leaves_spec):
    with pytest.raises(ValueError):
        decompose_cutset(square_leaves_spec, 1 << 10)


def test_check_cutset_structure_worked_example(square_leaves_spec, square_leaves_product):
    verdicts = check_cutset_structure(
        square_leaves_spec, vset([0, 2]), square_leaves_product
    )
    assert verdicts == [True] * 7
    # {u} avoids the attach set entirely, so fact (7) applies with force:
    # it is a cutset of the base containing no simplicial base vertex
    t_u = vset([0])
    assert check_cutset_structure(square_leaves_spec, t_u, square_leaves_product) == [True] * 7
    dec = decompose_cutset(square_leaves_spec, t_u)
    assert dec.t0 & square_leaves_spec.attach_set == 0
    assert bei.is_cutset(square_leaves_spec.base, dec.t0)
    assert dec.t0 & bei.simplicial_vertices(square_leaves_spec.base) == 0


def test_check_cutset_structure_attach_vertex_case():
    # one attach vertex of K3 with a whisker copy: {v} is a cutset; its base
    # neighbourhood is not contained in t0, so fact (4) holds vacuously
    spec = bei.CoronaSpec(bei.complete_graph(3), vset([0, 1]), bei.complete_graph(1))
    t = vset([0])
    assert check_cutset_structure(spec, t) == [True] * 7


def test_check_cutset_structure_all_cutsets_random():
    rng = random.Random(23)
    for _ in range(12):
        base = random_connected_graph(rng, rng.randrange(2, 5))
        attach = rng.randrange(1, base.full_mask)  # proper subsets here
        pend = random_connected_graph(rng, rng.randrange(1, 4))
        spec = bei.CoronaSpec(base, attach, pend)
        prod = bei.l_corona(spec)
        for mask, _ in bei.iter_cutsets(prod):
            if mask:
                assert check_cutset_structure(spec, mask, prod) == [True] * 7


def test_check_cutset_structure_rejects_non_cutsets(square_leaves_spec):
    with pytest.raises(ValueError):
        check_cutset_structure(square_leaves_spec, 0)
    with pytest.raises(ValueError):
        check_cutset_structure(square_leaves_spec, vset([4]))  # a leaf


def test_gadget_d2():
    assert bei.gadget_d2(bei.complete_graph(1)) == bei.Graph(3, [(0, 2), (1, 2)])
    g = bei.gadget_d2(bei.path_graph(3))
    assert g.n == 5 and bei.diameter(g) == 2
    for h in (bei.complete_graph(2), bei.path_graph(4), bei.cycle_graph(5)):
        gg = bei.gadget_d2(h)
        assert gg.n == h.n + 2
        assert bei.diameter(gg) == 2
    with pytest.raises(ValueError):
        bei.gadget_d2(bei.Graph(3, [(0, 1)]))


def test_gadget_d3():
    g = bei.gadget_d3(bei.complete_graph(1))
    assert g.n == 5 and bei.diameter(g) == 3
    assert bei.gadget_d3(bei.path_graph(2)).n == 7
    for h in (bei.complete_graph(2), bei.path_graph(3), bei.cycle_graph(4)):
        gg = bei.gadget_d3(h)
        assert gg.n == 3 + 2 * h.n
        assert bei.diameter(gg) == 3
    with pytest.raises(ValueError):
        bei.gadget_d3(bei.Graph(2))


def test_cutsets_of_nested_coronas_match_naive():
    c4 = bei.cycle_graph(4)
    inner = bei.corona(bei.complete_graph(2), c4)
    graphs = [
        # the pendant is itself factored again
        bei.corona(bei.complete_graph(1), inner),
        # two apexes, each inside the other's pendant
        bei.cone(bei.cone(inner)),
        bei.corona(bei.complete_graph(2), bei.corona(bei.complete_graph(1), c4)),
    ]
    for g in graphs:
        assert factors_pendants(g)
        assert_matches_naive(g)


def test_cutsets_of_gadgets_match_naive():
    graphs = [
        bei.gadget_d2(bei.cycle_graph(7)),
        bei.gadget_d2(bei.corona(bei.complete_graph(2), bei.cycle_graph(4))),
        bei.gadget_d3(bei.cycle_graph(4)),
        bei.gadget_d3(bei.cycle_graph(5)),
    ]
    for g in graphs:
        assert factors_pendants(g)
        assert_matches_naive(g)


def test_cutsets_of_a_cone_over_a_disconnected_graph_match_naive():
    # the apex carries several pendants, one of them complete, so it always
    # touches two components
    def union(*parts):
        edges, start = [], 0
        for h in parts:
            edges += [(u + start, v + start) for u, v in h.edges()]
            start += h.n
        return bei.Graph(start, edges)

    c4, c5 = bei.cycle_graph(4), bei.cycle_graph(5)
    for h in (union(c4, c4), union(c5, c4, bei.complete_graph(2))):
        g = bei.cone(h)
        assert factors_pendants(g)
        assert_matches_naive(g)


def test_spec_json_roundtrip(square_leaves_spec):
    obj = {
        "base": bei.to_graph6(square_leaves_spec.base),
        "L": members(square_leaves_spec.attach_set),
        "pendant": bei.to_graph6(square_leaves_spec.pendant),
    }
    assert obj["L"] == [1, 2]
    back = bei.corona_spec_from_json(obj)
    assert back.base == square_leaves_spec.base
    assert back.attach_set == square_leaves_spec.attach_set
    assert back.pendant == square_leaves_spec.pendant
