"""Cutset enumeration against the brute-force oracle, and the verdicts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bei
from bei import cutsets, members, vset

from conftest import (
    assert_early_stop_agrees,
    assert_matches_direct_search,
    assert_matches_naive,
    atlas,
    connected_atlas,
    factors_pendants,
    mixed_graphs,
    naive_is_accessible_system,
    naive_is_unmixed,
    naive_ncomp,
)


@st.composite
def small_graphs(draw, max_n=10):
    """Any graph on at most ``max_n`` vertices, disconnected ones included."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return bei.Graph(n, [p for p, k in zip(pairs, keep) if k])


def test_is_cutset_examples(square_leaves_product):
    assert bei.is_cutset(bei.path_graph(4), 0)
    for n in range(2, 6):
        k = bei.complete_graph(n)
        for v in range(n):
            assert not bei.is_cutset(k, vset([v]))
        assert not bei.is_cutset(k, k.full_mask)
    assert bei.is_cutset(square_leaves_product, vset([0, 2]))
    with pytest.raises(ValueError):
        bei.is_cutset(bei.path_graph(3), vset([5]))


def test_whole_vertex_set_never_a_cutset():
    for g in (bei.path_graph(4), bei.cycle_graph(5), bei.complete_graph(3)):
        assert not bei.is_cutset(g, g.full_mask)


def test_enumerate_frozen_small_families():
    # P3 = a-b-c: only the middle vertex separates
    rep = bei.enumerate_cutsets(bei.path_graph(3))
    assert rep.cutsets == (0, vset([1]))
    # P4: the two middle vertices, one at a time
    rep4 = bei.enumerate_cutsets(bei.path_graph(4))
    assert rep4.cutsets == (0, vset([1]), vset([2]))
    # complete graphs have no nonempty cutset
    assert bei.enumerate_cutsets(bei.complete_graph(4)).cutsets == (0,)


def test_enumerate_matches_naive_on_small_corpus():
    for g in connected_atlas(7):
        assert_matches_naive(g)


def test_enumerate_matches_naive_on_disconnected_graphs():
    for g in (
        bei.Graph(4, [(0, 1), (2, 3)]),
        bei.Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
        bei.Graph(3),
    ):
        assert_matches_naive(g)


def test_enumerate_matches_naive_on_small_coronas():
    pendants = (bei.complete_graph(1), bei.complete_graph(2), bei.path_graph(3))
    products = [
        bei.corona(bei.complete_graph(n), h) for n in (1, 2, 3) for h in pendants
    ]
    products.append(bei.corona(bei.cycle_graph(4), bei.complete_graph(1)))
    for g in products:
        assert g.n <= 12
        assert_matches_naive(g)


CLAW = bei.Graph(4, [(0, 1), (0, 2), (0, 3)])
PENDANTS = (bei.path_graph(3), bei.path_graph(4), bei.cycle_graph(4), CLAW)
BASES = (
    [bei.complete_graph(n) for n in (1, 2, 3, 4)]
    + [bei.path_graph(n) for n in (3, 4)]
    + [bei.cycle_graph(4)]
)


def assert_matches_oracle(g):
    if g.n <= 11:
        assert_matches_naive(g)
    else:
        assert_matches_direct_search(g)


def test_every_l_corona_of_small_bases_matches_the_oracle():
    # K_n, P_n and C_n bases with n <= 4 (P_1, P_2 and C_3 are complete),
    # the four pendants, every nonempty attach set
    factored = 0
    for base in BASES:
        for pendant in PENDANTS:
            for attach in range(1, base.full_mask + 1):
                g = bei.l_corona(bei.CoronaSpec(base, attach, pendant))
                factored += factors_pendants(g)
                assert_matches_oracle(g)
    assert factored >= 70


@st.composite
def connected_graphs(draw, min_n, max_n):
    """A random spanning tree plus any extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges.update(p for p, k in zip(pairs, keep) if k)
    return bei.Graph(n, sorted(edges))


@st.composite
def corona_specs(draw, max_vertices=16):
    """An L-corona of connected graphs with at most ``max_vertices``
    vertices in the product."""
    base = draw(connected_graphs(1, 4))
    pendant = draw(connected_graphs(1, 5))
    most = min(base.n, (max_vertices - base.n) // pendant.n)
    attach = draw(
        st.lists(st.integers(0, base.n - 1), min_size=1, max_size=most, unique=True)
    )
    return bei.CoronaSpec(base, vset(attach), pendant)


@settings(max_examples=60, deadline=None)
@given(corona_specs())
def test_enumerate_matches_the_oracle_on_random_corona_specs(spec):
    assert_matches_oracle(bei.l_corona(spec))


def test_early_stop_agrees_on_the_whole_atlas():
    graphs = atlas()
    assert graphs[0].n == 0
    assert any(bei.unmixed_report(g) is None for g in graphs)
    assert any(not bei.is_connected(g) and bei.unmixed_report(g) for g in graphs)
    for g in graphs:
        assert_early_stop_agrees(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_enumerate_matches_naive_on_random_graphs(g):
    assert_matches_naive(g)


def probe_witness(g: bei.Graph) -> tuple[int, int] | None:
    """The neighbourhood probe's violation, checked against the definition:
    an open neighbourhood that is a cutset whose component count breaks
    ``|T| + c(G)``."""
    w0 = naive_ncomp(g, set())
    witness = cutsets._neighbourhood_violation(g.adj, g.full_mask, w0)
    if witness is not None:
        mask, w = witness
        assert mask in g.adj
        assert bei.is_cutset(g, mask)
        assert w == naive_ncomp(g, set(members(mask))) != mask.bit_count() + w0
    return witness


def test_probe_witnesses_are_violating_cutsets():
    graphs = [*atlas(), *mixed_graphs()]
    assert graphs[0].n == 0
    settled = [g for g in graphs if probe_witness(g) is not None]
    assert any(not bei.is_connected(g) for g in settled)
    for g in settled:
        assert bei.unmixed_report(g) is None


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_probe_witnesses_are_violating_cutsets_on_random_graphs(g):
    if probe_witness(g) is not None:
        assert not naive_is_unmixed(g) and bei.unmixed_report(g) is None


def test_unmixed_report_enumerates_once_per_graph(monkeypatch):
    calls = []
    real = cutsets.iter_cutsets

    def counting(g, bound=None):
        calls.append(g)
        return real(g, bound)

    monkeypatch.setattr(cutsets, "iter_cutsets", counting)
    settled = 0
    for g in [*connected_atlas(7), *mixed_graphs()]:
        calls.clear()
        bei.unmixed_report(g)
        assert len(calls) == 1 and calls[0] is g
        settled += probe_witness(g) is not None
    assert settled > 0


def refuse_search_set_up(monkeypatch):
    """Make finding the simplicial vertices and the cone pendants fail."""

    def refuse(*args):
        raise AssertionError("search set-up ran")

    monkeypatch.setattr(cutsets, "simplicial_vertices", refuse)
    monkeypatch.setattr(cutsets, "_cone_pendants", refuse)


def test_empty_set_comes_before_the_search_set_up(monkeypatch):
    g = bei.corona(bei.cycle_graph(4), bei.path_graph(3))
    assert factors_pendants(g)
    refuse_search_set_up(monkeypatch)
    cuts = bei.iter_cutsets(g)
    assert next(cuts) == (0, 1)
    with pytest.raises(AssertionError, match="set-up"):
        next(cuts)
    # the bound is still checked before the empty set is yielded
    with pytest.raises(bei.EnumerationBoundError):
        next(bei.iter_cutsets(g, bound=g.n - 1))


def test_probe_settled_graphs_skip_the_search_set_up(monkeypatch):
    settled = [g for g in [*connected_atlas(7), *mixed_graphs()] if probe_witness(g)]
    assert settled
    refuse_search_set_up(monkeypatch)
    for g in settled:
        assert bei.unmixed_report(g) is None


def test_report_fields(square_leaves_base):
    rep = bei.enumerate_cutsets(square_leaves_base)
    assert rep.connected and rep.base_components == 1
    assert rep.is_unmixed
    assert rep.cutsets[0] == 0
    assert all(
        w == m.bit_count() + 1 for m, w in zip(rep.cutsets, rep.per_cutset_components)
    )
    assert rep.oracle_dimension == square_leaves_base.n + 1
    js = rep.to_json()
    assert js["unmixedness_definition"] == "standard"
    assert js["cutsets"][0] == []


def test_report_size_cap():
    g = bei.cycle_graph(5)
    full = bei.enumerate_cutsets(g)
    capped = bei.enumerate_cutsets(g, size_cap=1)
    assert capped.cutsets == tuple(m for m in full.cutsets if m.bit_count() <= 1)
    assert capped.size_cap == 1
    with pytest.raises(ValueError, match="size cap must be at least 0, got -1"):
        bei.enumerate_cutsets(g, size_cap=-1)


def test_sorted_by_size_then_lex():
    rep = bei.enumerate_cutsets(bei.cycle_graph(5))
    keys = [(m.bit_count(), members(m)) for m in rep.cutsets]
    assert keys == sorted(keys)


def unmixed(g):
    return bei.enumerate_cutsets(g).is_unmixed


def accessible_system(g):
    return bei.enumerate_cutsets(g).is_accessible_system


def test_unmixedness_examples(square_leaves_base, square_leaves_product):
    for n in range(1, 6):
        assert unmixed(bei.complete_graph(n))
    assert unmixed(square_leaves_base)
    rep = bei.enumerate_cutsets(square_leaves_product)
    assert not rep.is_unmixed
    mask, w = rep.unmixed_violation
    assert members(mask) == [0, 2] and w == 4
    assert bei.enumerate_cutsets(square_leaves_base).unmixed_violation is None
    assert bei.unmixed_report(square_leaves_product) is None
    assert_early_stop_agrees(square_leaves_base)


def test_unmixedness_matches_naive_on_corpus():
    for g in connected_atlas(5):
        assert unmixed(g) == naive_is_unmixed(g)


def test_disconnected_unmixedness_extension():
    # both parts unmixed: the union satisfies components == |T| + components(G)
    g = bei.Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # P3 + P3
    assert unmixed(g)
    rep = bei.enumerate_cutsets(g)
    assert not rep.connected
    assert rep.to_json()["unmixedness_definition"] == "disconnected-extension"
    # one part mixed: the union is mixed too
    star_and_edge = bei.Graph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    assert not unmixed(star_and_edge)


def test_accessibility_examples(square_leaves_product):
    for n in range(1, 6):
        assert bei.is_accessible(bei.complete_graph(n))
    assert bei.is_accessible(bei.path_graph(4))
    # the corona counterexample has an accessible cutset system but is not
    # unmixed, hence not accessible
    assert accessible_system(square_leaves_product)
    assert not bei.is_accessible(square_leaves_product)
    # the 4-cycle fails at the system level: {0,2} has no removable vertex
    c4 = bei.cycle_graph(4)
    assert not accessible_system(c4)
    assert not bei.is_accessible(c4)
    assert bei.enumerate_cutsets(c4).stuck_cutset == vset([0, 2])
    assert bei.enumerate_cutsets(bei.path_graph(4)).stuck_cutset is None


def test_accessible_system_matches_naive_on_corpus():
    for g in connected_atlas(5):
        assert accessible_system(g) == naive_is_accessible_system(g)


def test_dimension_oracle_examples():
    for n in range(1, 6):
        assert bei.dimension_oracle(bei.complete_graph(n)) == n + 1
    # one copy of P3 on K2: 5 vertices, dimension 6
    g = bei.l_corona(bei.CoronaSpec(bei.complete_graph(2), 1, bei.path_graph(3)))
    assert bei.dimension_oracle(g) == 6
    # complete base with unmixed pendant everywhere: n + n*h + 1
    for n in (1, 2, 3):
        for h in (bei.complete_graph(2), bei.path_graph(3)):
            prod = bei.corona(bei.complete_graph(n), h)
            assert bei.dimension_oracle(prod) == n + n * h.n + 1


def test_dimension_oracle_unmixed_iff_tight_on_corpus():
    # for connected graphs, dimension n+1 is equivalent to every cutset
    # having components == |T| + 1 *at the maximum*; unmixedness implies it
    for g in connected_atlas(5):
        if unmixed(g):
            assert bei.dimension_oracle(g) == g.n + 1


def test_simplicial_vertices_in_no_cutset_on_corpus():
    for g in connected_atlas(5):
        sim = bei.simplicial_vertices(g)
        for mask, _ in bei.iter_cutsets(g):
            assert mask & sim == 0


def test_witness_chain():
    assert bei.accessibility_witness_chain(bei.path_graph(4), 0) == []
    assert bei.accessibility_witness_chain(bei.path_graph(4), vset([1])) == [1]
    # the opposite pair in a 4-cycle is a cutset with no chain
    c4 = bei.cycle_graph(4)
    assert bei.is_cutset(c4, vset([0, 2]))
    assert bei.accessibility_witness_chain(c4, vset([0, 2])) is None
    with pytest.raises(ValueError):
        bei.accessibility_witness_chain(bei.path_graph(4), vset([0]))


def test_witness_chain_tries_each_subset_once(monkeypatch):
    # the alternating 10-set of C_20 is a cutset with no chain (no single
    # vertex of a cycle is a cutset); a search that tried a subset again
    # would make factorially many checks
    original = cutsets.is_cutset
    calls = []

    def counted(g, t):
        calls.append(t)
        if len(calls) > 1 << 10:
            raise AssertionError("more than 2^10 cutset checks")
        return original(g, t)

    monkeypatch.setattr(cutsets, "is_cutset", counted)
    t = vset(range(0, 20, 2))
    assert bei.accessibility_witness_chain(bei.cycle_graph(20), t) is None


def test_witness_chain_prefers_smallest_vertex(square_leaves_product):
    chain = bei.accessibility_witness_chain(square_leaves_product, vset([0, 2]))
    assert chain == [0, 2]


def test_enumeration_bound():
    big = bei.Graph(30)
    with pytest.raises(bei.EnumerationBoundError):
        list(bei.iter_cutsets(big))
    assert bei.dimension_oracle(big, bound=30) == 30 + 30  # 30 isolated vertices
    with pytest.raises(bei.EnumerationBoundError):
        bei.enumerate_cutsets(bei.path_graph(5), bound=4)
    with pytest.raises(bei.EnumerationBoundError):
        bei.unmixed_report(bei.path_graph(5), bound=4)
    with pytest.raises(bei.EnumerationBoundError):
        bei.unmixed_report(big)
    # not unmixed, and settled by the neighbourhood probe within the bound:
    # the bound is still checked first
    claw = bei.Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert bei.unmixed_report(claw) is None
    with pytest.raises(bei.EnumerationBoundError):
        bei.unmixed_report(claw, bound=3)


def test_bound_env_var(monkeypatch):
    monkeypatch.setenv("BEI_BOUND", "3")
    assert bei.enumeration_bound() == 3
    with pytest.raises(bei.EnumerationBoundError):
        list(bei.iter_cutsets(bei.path_graph(4)))
    assert bei.enumeration_bound(10) == 10  # explicit argument wins
    monkeypatch.setenv("BEI_BOUND", "junk")
    with pytest.raises(ValueError):
        bei.enumeration_bound()
    monkeypatch.delenv("BEI_BOUND")
    assert bei.enumeration_bound() == bei.DEFAULT_BOUND
