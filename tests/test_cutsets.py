"""Cutset enumeration against the brute-force oracle, and the verdicts."""

import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bei
from bei import cutsets, members
from bei._verb_cutsets import _report_pieces

from conftest import (
    assert_early_stop_agrees,
    assert_matches_direct_search,
    assert_matches_naive,
    atlas,
    connected_atlas,
    copy_start,
    factors_pendants,
    full_corona,
    mixed_graphs,
    naive_cutsets,
    naive_is_accessible_system,
    naive_is_unmixed,
    naive_ncomp,
    random_connected_graph,
    vset,
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
    factored = 0
    for g in connected_atlas(7):
        factored += factors_pendants(g)
        assert_matches_naive(g)
    # the graphs split at a cone pendant, where the core search is not the
    # whole graph
    assert factored == 192


def test_a_small_graph_is_split_at_its_cone_pendant(monkeypatch):
    # a leaf and a P3 coned off vertex 0: two candidates, 0 and 3, and the
    # P3 is a non-complete cone pendant of 0 (the leaf is complete)
    g = bei.Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (3, 4)])
    found = []
    cone_pendants = cutsets._cone_pendants

    def counting(adj, full, cand):
        found.append(cone_pendants(adj, full, cand))
        return found[-1]

    monkeypatch.setattr(cutsets, "_cone_pendants", counting)
    assert_matches_naive(g)
    assert [(0, vset([2, 3, 4]))] in found


def test_each_copy_of_a_non_complete_pendant_is_a_cone_pendant_of_its_attach_vertex():
    # the corona layout: copy v of H is a component of the product minus v
    # lying inside N(v), and the one factored under v
    bases = connected_atlas(4)
    pendants = [h for h in bases if h.n >= 3 and h != bei.complete_graph(h.n)]
    products = 0
    for base in bases:
        for pendant in pendants:
            for attach in range(1, base.full_mask + 1):
                spec = bei.CoronaSpec(base, attach, pendant)
                g = bei.l_corona(spec)
                cand = g.full_mask & ~bei.simplicial_vertices(g)
                found = cutsets._cone_pendants(g.adj, g.full_mask, cand)
                for v in members(attach):
                    assert (v, pendant.full_mask << copy_start(spec, v)) in found
                products += 1
    assert products == 648


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
        full_corona(bei.complete_graph(n), h) for n in (1, 2, 3) for h in pendants
    ]
    products.append(full_corona(bei.cycle_graph(4), bei.complete_graph(1)))
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
    g = full_corona(bei.cycle_graph(4), bei.path_graph(3))
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
    assert "connected" not in rep._fields  # read from base_components
    assert rep.is_unmixed
    assert rep.cutsets[0] == 0
    assert all(
        w == m.bit_count() + 1 for m, w in zip(rep.cutsets, rep.per_cutset_components)
    )
    assert rep.oracle_dimension == square_leaves_base.n + 1
    js = printed(rep)
    assert js["unmixedness_definition"] == "standard"
    assert js["cutsets"][0] == []


def printed(report, size_cap=None):
    """The report as ``bei cutsets`` prints it."""
    return json.loads("".join(_report_pieces(report, size_cap)))


def test_report_stores_only_the_family():
    # the witnesses, verdicts and dimension are derived, so a report cannot
    # contradict itself
    assert bei.CutsetReport._fields == ("n", "cutsets", "per_cutset_components")
    rep = bei.enumerate_cutsets(bei.cycle_graph(4))
    assert rep._replace(n=5).oracle_dimension == rep.oracle_dimension + 1


def test_witnesses_are_the_first_in_report_order():
    # against the naive family sorted by (size, member list), on every atlas
    # graph on at most 6 vertices
    for g in itertools.takewhile(lambda g: g.n <= 6, atlas()):
        family = sorted(naive_cutsets(g), key=lambda m: (m.bit_count(), members(m)))
        w0 = naive_ncomp(g, set())
        counts = {m: naive_ncomp(g, set(members(m))) for m in family}
        violations = [(m, counts[m]) for m in family if counts[m] != m.bit_count() + w0]
        stuck = [
            m for m in family if m and not any(m & ~(1 << v) in counts for v in members(m))
        ]
        report = bei.enumerate_cutsets(g)
        assert report.cutsets == tuple(family)
        assert report.unmixed_violation == next(iter(violations), None)
        assert report.stuck_cutset == next(iter(stuck), None)
        assert report.is_unmixed == (not violations)
        assert report.is_accessible_system == (not stuck)
        assert report.oracle_dimension == g.n + max(counts[m] - m.bit_count() for m in family)


def test_report_order_key_is_size_then_member_lists():
    # the integer key of _report against the (size, members) order it
    # replaces, on every mask of every n up to 10
    for n in range(11):
        report = cutsets._report(bei.Graph(n), [(m, 0) for m in range(1 << n)])
        assert report.cutsets == tuple(sorted(range(1 << n), key=lambda m: (m.bit_count(), members(m))))


def definitional_order(g, bound=None):
    """``iter_cutsets`` sorted by size, then by member lists."""
    return sorted(bei.iter_cutsets(g, bound), key=lambda mw: (mw[0].bit_count(), members(mw[0])))


def test_packed_report_order_is_the_definitional_order():
    # seeded random graphs (connected ones on 8-12 vertices, sparse ones on
    # 12-16 that mostly are not), a disjoint union, and n = 0 and 1
    rng = random.Random(31)
    graphs = [
        *(random_connected_graph(rng, n) for n in range(8, 13) for _ in range(4)),
        *(
            bei.Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.12])
            for n in range(12, 17)
            for _ in range(4)
        ),
        bei.Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)]),
        bei.Graph(0),
        bei.Graph(1),
    ]
    for g in graphs:
        report = bei.enumerate_cutsets(g)
        assert list(zip(report.cutsets, report.per_cutset_components)) == definitional_order(g)


def test_packed_report_order_holds_wide_masks_and_many_components():
    # K_{1,39} centred on vertex 39: its masks reach 2^39, beyond 31 bits,
    # and removing the centre leaves 39 >= 32 components, which must fit in
    # the n.bit_length() = 6 bits packed below each mask
    star = bei.Graph(40, [(v, 39) for v in range(39)])
    report = bei.enumerate_cutsets(star, bound=40)
    assert report.cutsets == (0, 1 << 39) and report.per_cutset_components == (1, 39)
    assert list(zip(report.cutsets, report.per_cutset_components)) == definitional_order(star, 40)


def whole_family_stuck_cutset(report):
    """The first nonempty cutset, in report order, from which no single
    removal leaves a cutset, tested against a set of the whole family."""
    listed = set(report.cutsets)
    stuck = (m for m in report.cutsets if m and all(m ^ (1 << v) not in listed for v in members(m)))
    return next(stuck, None)


def test_per_size_stuck_cutset_is_the_whole_family_rule():
    for g in (*connected_atlas(7), bei.from_graph6("FFwc?")):
        report = bei.enumerate_cutsets(g)
        assert report.stuck_cutset == whole_family_stuck_cutset(report)
    assert bei.enumerate_cutsets(bei.from_graph6("FFwc?")).stuck_cutset is not None


def test_stuck_cutset_holds_no_copy_of_the_family():
    # the rule holds two size classes, not a set of every mask: C20's first
    # pair of non-adjacent vertices is stuck, so it allocates next to
    # nothing against the report's own size
    report = bei.enumerate_cutsets(bei.cycle_graph(20))
    size = sys.getsizeof(report.cutsets) + sys.getsizeof(report.per_cutset_components)
    size += sum(map(sys.getsizeof, report.cutsets))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert report.stuck_cutset == vset([0, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < size / 10


def test_a_pendant_family_is_listed_when_its_apex_enters_a_core_set(monkeypatch):
    # K2 o C8: the core search runs over the base {0, 1} and yields {0}
    # first, so the copy under vertex 1 is listed only after every cutset
    # whose core is {0}, and each copy once; a pendant's family is a nested
    # _nonempty_cutsets call (C8 has no pendant of its own)
    g = full_corona(bei.complete_graph(2), bei.cycle_graph(8))
    listed = []
    nonempty_cutsets = cutsets._nonempty_cutsets

    def counting(adj, full, cand):
        listed.append(full)
        return nonempty_cutsets(adj, full, cand)

    monkeypatch.setattr(cutsets, "_nonempty_cutsets", counting)
    cuts = bei.iter_cutsets(g)
    assert next(cuts) == (0, 1) and not listed
    first = next(cuts)
    assert first[0] & 0b11 == 0b01 and listed == [g.full_mask, copy_mask(g, 0)]
    rest = list(cuts)
    assert listed == [g.full_mask, copy_mask(g, 0), copy_mask(g, 1)] and len(rest) + 2 == 1523


def copy_mask(g, v):
    """The vertex mask of the pendant copy under base vertex ``v`` of a
    corona over K2 (the copies follow the two base vertices)."""
    h = (g.n - 2) // 2
    return ((1 << h) - 1) << (2 + v * h)


def test_report_size_cap():
    # the cap trims the listing only: C4 is not unmixed, although every
    # cutset of at most one vertex (the empty set alone) keeps the rule
    report = bei.enumerate_cutsets(bei.cycle_graph(4))
    assert "size_cap" not in report._fields and len(report._fields) == 3
    full, capped = printed(report), printed(report, size_cap=1)
    assert full["cutsets"] == [[], [0, 2], [1, 3]] and full["size_cap"] is None
    assert capped["cutsets"] == [[]] and capped["per_cutset_components"] == [1]
    assert capped["size_cap"] == 1
    assert capped["is_unmixed"] is full["is_unmixed"] is False
    assert capped["is_accessible_system"] is full["is_accessible_system"] is False
    assert capped["oracle_dimension"] == full["oracle_dimension"] == 5


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
    assert printed(rep)["unmixedness_definition"] == "disconnected-extension"
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
            prod = full_corona(bei.complete_graph(n), h)
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


def test_witness_chain_is_bounded_before_any_cutset_check(monkeypatch):
    def not_run(g, t):
        raise AssertionError("is_cutset ran")

    monkeypatch.setattr(cutsets, "is_cutset", not_run)
    t = vset(range(0, 20, 2))
    with pytest.raises(bei.EnumerationBoundError, match="^10 vertices exceeds the enumeration bound 9$"):
        bei.accessibility_witness_chain(bei.cycle_graph(20), t, bound=9)
    with pytest.raises(bei.EnumerationBoundError):
        bei.accessibility_witness_chain(bei.cycle_graph(60), vset(range(0, 50, 2)))


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
    # no bound means DEFAULT_BOUND
    assert bei.dimension_oracle(bei.Graph(bei.DEFAULT_BOUND)) == 2 * bei.DEFAULT_BOUND
    with pytest.raises(bei.EnumerationBoundError):
        bei.dimension_oracle(bei.Graph(bei.DEFAULT_BOUND + 1))


def test_a_negative_bound_is_refused_as_such():
    # not an EnumerationBoundError: no graph, not even an empty one, exceeds it
    with pytest.raises(ValueError, match="bound must be at least 0, got -1") as exc:
        bei.enumerate_cutsets(bei.Graph(0), bound=-1)
    assert not isinstance(exc.value, bei.EnumerationBoundError)


def test_the_bound_is_not_read_from_the_environment(monkeypatch):
    monkeypatch.setenv("BEI_BOUND", "3")
    assert len(bei.enumerate_cutsets(bei.path_graph(5)).cutsets) == 5
