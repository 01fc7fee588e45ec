"""The closed-form engine: pendant records, dimension/depth/regularity
formulas, Cohen-Macaulay defect, extremal Betti positions, classification,
and the dimension formula against the cutset oracle."""

import json

import pytest

import bei
from bei.invariants import CM_CLOSED, FULL_CORONA, L_CORONA, PATH

from conftest import connected_atlas, full_corona, vset


def block(g):
    return bei.base_invariants_block_graph(g)


def test_base_invariants_validation():
    good = dict(h=3, dim_q=4, depth_q=4, reg_q=2)
    rec = bei.BaseInvariants(**good)
    # pd, Cohen-Macaulayness and completeness are derived, not stored
    assert len(bei.BaseInvariants._fields) == 8
    assert (rec.pd, rec.is_cm, rec.is_complete) == (2, True, False)
    with pytest.raises(TypeError):
        bei.BaseInvariants(**good, pd=2)
    with pytest.raises(ValueError, match="reg below 1"):
        bei.BaseInvariants(**{**good, "reg_q": 0})
    with pytest.raises(ValueError, match="floor"):
        bei.BaseInvariants(h=3, dim_q=5, depth_q=5, reg_q=2)  # pd 1
    with pytest.raises(ValueError, match="depth exceeds dim"):
        bei.BaseInvariants(h=3, dim_q=3, depth_q=4, reg_q=2)
    with pytest.raises(ValueError, match="complete pendant"):
        bei.BaseInvariants(h=3, dim_q=5, depth_q=4, reg_q=1)
    with pytest.raises(ValueError, match="extremal offset"):
        bei.BaseInvariants(**good, r_extremal=1)


P3_RECORD = {"h": 3, "dim": 4, "depth": 4, "reg": 2, "pd": 2, "is_complete": False,
             "is_unmixed": True, "is_cm": True, "is_accessible": True, "r_extremal": 2}


def test_base_invariants_json_roundtrip():
    rec = block(bei.path_graph(3))
    assert bei.BaseInvariants.from_json(P3_RECORD) == rec._replace(provenance="user-supplied")
    # the derived fields may be left out, except the required pd and is_complete
    assert bei.BaseInvariants.from_json({**P3_RECORD, "is_cm": None}).is_cm is True
    with pytest.raises(ValueError, match="^pendant record has no field 'pd'$"):
        bei.BaseInvariants.from_json({k: v for k, v in P3_RECORD.items() if k != "pd"})


def test_every_small_block_graph_record_survives_a_json_round_trip():
    records = [block(g) for g in connected_atlas(7) if bei.is_block_graph(g)]
    for rec in records:
        assert bei.BaseInvariants.from_json(json.loads(json.dumps(rec.to_json()))) == rec
    assert len(records) == 98
    assert {rec.is_cm for rec in records} == {True, False}


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"pd": 3}, "'pd' must be 2"),
        ({"is_complete": True}, "'is_complete' must be false"),
        ({"is_cm": False}, "'is_cm' must be true"),
        ({"dim": 5, "is_cm": False, "is_unmixed": False, "r_extremal": None},
         "is_accessible is true but is_unmixed is false"),
        ({"is_unmixed": False, "is_accessible": None}, "is_unmixed or is_accessible is false"),
        ({"is_accessible": False}, "is_unmixed or is_accessible is false"),
        ({"r_extremal": 3}, "r_extremal is not reg"),
    ],
    ids=["pd", "is-complete", "is-cm", "accessible-unmixed", "cm-unmixed", "cm-accessible",
         "cm-corner"],
)
def test_base_invariants_from_json_refuses_a_contradiction(changes, named):
    with pytest.raises(ValueError, match=named):
        bei.BaseInvariants.from_json({**P3_RECORD, **changes})


@pytest.mark.parametrize(
    "field, value",
    [
        ("h", None),
        ("h", 3.5),
        ("dim", 4.9),
        ("h", True),
        ("pd", "2"),
        ("r_extremal", "2"),
        ("r_extremal", 2.0),
        ("is_complete", "no"),
        ("is_complete", None),
        ("is_unmixed", "yes"),
        ("is_cm", 1),
        ("is_accessible", []),
        ("provenance", 7),
        ("provenance", None),
    ],
)
def test_base_invariants_from_json_checks_each_field_type(field, value):
    obj = {**block(bei.path_graph(3)).to_json(), field: value}
    with pytest.raises(ValueError, match=f"'{field}'"):
        bei.BaseInvariants.from_json(obj)


def test_base_invariants_from_json_names_an_unknown_field():
    obj = block(bei.path_graph(3)).to_json()
    obj["is_unmixd"] = obj.pop("is_unmixed")
    with pytest.raises(ValueError, match="unknown field 'is_unmixd'"):
        bei.BaseInvariants.from_json(obj)


def test_block_graph_closed_forms():
    for h in range(1, 6):
        rec = block(bei.complete_graph(h))
        assert (rec.dim_q, rec.depth_q, rec.reg_q, rec.pd) == (h + 1, h + 1, 1, h - 1)
        assert rec.is_complete and rec.is_cm and rec.is_unmixed and rec.is_accessible
        assert rec.r_extremal is None
    p3 = block(bei.path_graph(3))
    assert (p3.dim_q, p3.depth_q, p3.reg_q, p3.pd) == (4, 4, 2, 2)
    assert p3.r_extremal == 2 and p3.provenance == "closed-form"
    p4 = block(bei.path_graph(4))
    assert p4.reg_q == 3 and p4.r_extremal == 3
    assert p4.dim_q == bei.dimension_oracle(bei.path_graph(4))


def test_block_graph_constructor_handles_non_cm_block_graphs():
    # the star is a block graph whose quotient is not Cohen-Macaulay:
    # depth stays |V|+1 but the dimension oracle says 6
    star = bei.Graph(4, [(0, 1), (0, 2), (0, 3)])
    rec = block(star)
    assert rec.depth_q == 5
    assert rec.dim_q == 6 == bei.dimension_oracle(star)
    assert rec.is_cm is False and rec.is_unmixed is False
    assert rec.r_extremal is None and rec.provenance == "oracle"


def test_block_graph_constructor_rejects_non_block_graphs():
    with pytest.raises(ValueError):
        block(bei.cycle_graph(4))
    with pytest.raises(ValueError):
        block(bei.Graph(3, [(0, 1)]))


def test_an_over_bound_block_graph_is_refused_before_its_passes(monkeypatch):
    # the block and internal-vertex passes are cubic on K_n
    def not_run(g):
        raise AssertionError("simplicial_vertices ran")

    monkeypatch.setattr(bei.graph, "simplicial_vertices", not_run)
    with pytest.raises(bei.EnumerationBoundError, match="^25 vertices exceeds the enumeration bound 24$"):
        block(bei.complete_graph(25))
    # the bound comes first, before the graph is found not to be a block graph
    with pytest.raises(bei.EnumerationBoundError):
        bei.base_invariants_block_graph(bei.cycle_graph(5), bound=4)


def dim_l_corona(n, ell, rec):
    return bei.depth_reg_corona_complete(n, ell, rec).dim_q


def test_dim_l_corona_examples():
    k1 = block(bei.complete_graph(1))
    assert dim_l_corona(1, 1, k1) == 3  # the product is a single edge
    p3 = block(bei.path_graph(3))
    assert dim_l_corona(2, 1, p3) == 6
    # unmixed pendant everywhere: n + n*h + 1
    for n in (1, 2, 3):
        for rec in (block(bei.complete_graph(3)), p3):
            assert dim_l_corona(n, n, rec) == n + n * rec.h + 1
    # the claw has dim 6 = h + 2: the full corona loses the "+1"
    claw = block(bei.Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert dim_l_corona(2, 2, claw) == 12
    assert dim_l_corona(2, 1, claw) == 8
    with pytest.raises(ValueError):
        dim_l_corona(2, 3, p3)
    with pytest.raises(ValueError):
        dim_l_corona(0, 0, p3)


def test_depth_reg_full_corona():
    p3 = block(bei.path_graph(3))
    rep = bei.depth_reg_corona_complete(2, 2, p3)
    assert rep.family == FULL_CORONA
    assert (rep.dim_q, rep.depth_q, rep.reg_q, rep.cmdef) == (9, 8, 4, 1)
    assert rep.pd == 2 * 8 - 8 == 8
    # complete pendant: depth 1 + n*(h+1), reg n+1
    for n in (1, 2, 3):
        for h in (1, 2, 3):
            rep = bei.depth_reg_corona_complete(n, n, block(bei.complete_graph(h)))
            assert rep.depth_q == 1 + n * (h + 1) == n + n * h + 1
            assert rep.reg_q == (n + 1 if n >= 2 else 1)
            assert rep.cmdef == 0
            assert rep.verdicts["cm"].value is True


def test_depth_reg_single_attach():
    p3 = block(bei.path_graph(3))
    rep = bei.depth_reg_corona_complete(2, 1, p3)
    assert rep.family == L_CORONA
    assert (rep.depth_q, rep.reg_q, rep.dim_q) == (6, 3, 6)
    # complete pendant: reg is exactly 2
    for n in (2, 3, 4):
        rep = bei.depth_reg_corona_complete(n, 1, block(bei.complete_graph(2)))
        assert rep.reg_q == 2
        assert rep.depth_q == n + 3


def test_depth_reg_multi_attach():
    p3 = block(bei.path_graph(3))
    for n in (3, 4, 5):
        for ell in range(2, n):
            rep = bei.depth_reg_corona_complete(n, ell, p3)
            assert rep.depth_q == n - ell + 1 + ell * 4
            assert rep.reg_q == 1 + ell * 2
            assert rep.dim_q == n - ell + 1 + ell * 4
            assert rep.cmdef == 0
            assert rep.verdicts["unmixed"].value is True  # transfers from P3


def test_reports_satisfy_auslander_buchsbaum():
    recs = [block(bei.path_graph(h)) for h in (1, 2, 3, 4)]
    for rec in recs:
        for n in (1, 2, 3):
            for ell in range(1, n + 1):
                rep = bei.depth_reg_corona_complete(n, ell, rec)
                assert rep.pd + rep.depth_q == 2 * rep.product_vertices


def test_single_vertex_base_complete_pendant_is_complete_product():
    # the product of a point with a complete pendant is complete: reg 1
    for h in (1, 2, 3):
        rep = bei.depth_reg_corona_complete(1, 1, block(bei.complete_graph(h)))
        prod = full_corona(bei.complete_graph(1), bei.complete_graph(h))
        assert prod == bei.complete_graph(prod.n)
        assert rep.reg_q == 1 == bei.internal_vertex_count(prod) + 1
        assert rep.depth_q == prod.n + 1


def test_cmdef_report():
    p3 = block(bei.path_graph(3))
    k2 = block(bei.complete_graph(2))
    star = block(bei.Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert star.dim_q - star.depth_q == 1
    # the piecewise closed form, row n lists ell = 1..n: ell * cmdef(H) for
    # ell < n; at ell = n, 0 for a complete pendant, else n * cmdef(H), plus
    # 1 when dim H = h + 1 (P3, not the star)
    expected = (
        (p3, [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]]),  # (2, 2): almost CM
        (k2, [[0], [0, 0], [0, 0, 0], [0, 0, 0, 0]]),
        (star, [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]]),
    )
    for rec, rows in expected:
        for n, row in enumerate(rows, 1):
            for ell, want in enumerate(row, 1):
                rep = bei.depth_reg_corona_complete(n, ell, rec)
                assert rep.cmdef == rep.dim_q - rep.depth_q == want, (n, ell)


def test_cmdef_with_almost_cm_pendant_built_from_a_report():
    # build an almost-CM pendant as a 2-copy product, reuse it as pendant data
    p3 = block(bei.path_graph(3))
    inner = bei.depth_reg_corona_complete(2, 2, p3)
    pend = bei.BaseInvariants(
        h=inner.product_vertices,
        dim_q=inner.dim_q,
        depth_q=inner.depth_q,
        reg_q=inner.reg_q,
    )
    assert pend.h == 8 and pend.dim_q - pend.depth_q == 1
    assert pend.pd == inner.pd and not pend.is_complete
    # oracle cross-check at desk scale: dim of the 19-vertex product
    inner_graph = full_corona(bei.complete_graph(2), bei.path_graph(3))
    outer = bei.l_corona(
        bei.CoronaSpec(bei.complete_graph(3), vset([0, 1]), inner_graph)
    )
    dim = bei.dimension_oracle(outer)
    rep = bei.depth_reg_corona_complete(3, 2, pend)
    assert rep.cmdef == 2
    assert dim == rep.dim_q
    assert dim - rep.depth_q == 2


def test_cm_closed_family():
    k2 = block(bei.complete_graph(2))
    rep = bei.depth_reg_corona_cm_closed(bei.path_graph(3), k2)
    assert rep.family == CM_CLOSED and rep.b == 3
    assert rep.depth_q == 1 + 3 * 3 == 10
    assert rep.reg_q == 4
    # the product is a block graph on 9 vertices: check the closed forms
    prod = full_corona(bei.path_graph(3), bei.complete_graph(2))
    assert bei.is_block_graph(prod)
    assert rep.depth_q == prod.n + 1
    assert rep.reg_q == bei.internal_vertex_count(prod) + 1
    # the dimension formula agrees with the oracle and exceeds depth: not
    # Cohen-Macaulay
    assert rep.dim_q == bei.dimension_oracle(prod) == 11
    assert rep.cmdef == 1
    assert rep.verdicts["cm"].value is False
    assert rep.verdicts["unmixed"].value is False


def test_cm_closed_without_pendant_graph_has_the_formula_dimension():
    p3 = block(bei.path_graph(3))
    rep = bei.depth_reg_corona_cm_closed(bei.path_graph(3), p3)
    # 3 * dim P_3 + alpha(P_3), as the oracle gives for P_3 o P_3
    assert (rep.dim_q, rep.cmdef) == (14, 2)
    assert rep.to_json()["dim"]["provenance"] == "formula:l-corona-dimension"


def test_cm_closed_over_the_bound_builds_no_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("the product was built or enumerated")

    p3 = block(bei.path_graph(3))
    monkeypatch.setattr(bei.corona, "l_corona", no_product)
    monkeypatch.setattr(bei.cutsets, "iter_cutsets", no_product)
    rep = bei.depth_reg_corona_cm_closed(bei.path_graph(7), p3)
    assert 7 * 4 > bei.DEFAULT_BOUND
    assert rep.dim_q == 7 * 4 + 4 == 32  # alpha(P_7) = 4
    assert rep.to_json()["dim"]["provenance"] == "formula:l-corona-dimension"


def test_cm_closed_complete_base_matches_full_corona():
    for n in (1, 2, 3, 4, 5):
        for rec in (block(bei.complete_graph(2)), block(bei.path_graph(3))):
            a = bei.depth_reg_corona_cm_closed(bei.complete_graph(n), rec)
            b = bei.depth_reg_corona_complete(n, n, rec)
            assert (a.depth_q, a.reg_q, a.pd, a.dim_q, a.cmdef) == (
                b.depth_q,
                b.reg_q,
                b.pd,
                b.dim_q,
                b.cmdef,
            )
            assert a.extremal_position == b.extremal_position
            assert a.family == CM_CLOSED


def test_cm_closed_rejects_non_clique_paths():
    star = bei.Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        bei.depth_reg_corona_cm_closed(star, block(bei.complete_graph(2)))


def test_path_family_matches_cm_closed():
    for n in (1, 2, 3, 4):
        for rec in (block(bei.complete_graph(3)), block(bei.path_graph(3))):
            a = bei.depth_reg_corona_path(n, rec)
            b = bei.depth_reg_corona_cm_closed(bei.path_graph(n), rec)
            assert (a.depth_q, a.reg_q, a.pd, a.dim_q) == (b.depth_q, b.reg_q, b.pd, b.dim_q)
            assert a.extremal_position == b.extremal_position
            assert a.family == PATH
            if n == 1:
                # the cone over H that the full corona over K_1 describes
                assert a.notes == bei.depth_reg_corona_complete(1, 1, rec).notes != ()


def test_extremal_positions_golden():
    base = bei.BaseInvariants(h=4, dim_q=6, depth_q=4, reg_q=3, r_extremal=3)
    p_h, r_h = base.pd, base.r_extremal
    assert p_h == 4

    def position(report):
        return report.extremal_position

    # full corona: p = 2n + n*p_H; the column offset gains 1 from n = 3 on
    full2 = (4 + 2 * p_h, 4 + 2 * p_h + 2 * r_h)
    assert position(bei.depth_reg_corona_complete(2, 2, base)) == full2
    assert position(bei.depth_reg_corona_complete(3, 3, base)) == (
        6 + 3 * p_h,
        6 + 3 * p_h + 3 * r_h + 1,
    )
    # partial attach: p = n + ell - 1 + ell*p_H
    assert position(bei.depth_reg_corona_complete(2, 1, base)) == (
        2 + p_h,
        2 + p_h + r_h,
    )
    assert position(bei.depth_reg_corona_complete(4, 2, base)) == (
        4 + 2 - 1 + 2 * p_h,
        4 + 2 - 1 + 2 * p_h + 2 * r_h + 1,
    )
    # a clique path that is not complete: always the +1 offset; one on two
    # vertices is K_2 and takes the complete-base statement, which has none
    # (recorded asymmetry)
    triangle_and_edge = bei.Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert position(bei.depth_reg_corona_cm_closed(triangle_and_edge, base)) == (
        8 + 4 * p_h,
        8 + 4 * p_h + 4 * r_h + 1,
    )
    assert position(bei.depth_reg_corona_cm_closed(bei.path_graph(2), base)) == full2
    assert position(bei.depth_reg_corona_path(2, base)) == full2
    assert position(bei.depth_reg_corona_path(3, base)) == (
        6 + 3 * p_h,
        6 + 3 * p_h + 3 * r_h + 1,
    )


def test_extremal_position_errors():
    """Where no extremal statement applies the reports carry None: a
    complete pendant, a pendant record without ``r_extremal``, and a
    single-vertex base."""
    complete = block(bei.complete_graph(3))
    noncomplete = bei.BaseInvariants(h=4, dim_q=6, depth_q=4, reg_q=3)
    withr = noncomplete._replace(r_extremal=2)
    for rec in (complete, noncomplete):
        assert bei.depth_reg_corona_complete(3, 3, rec).extremal_position is None
        assert bei.depth_reg_corona_complete(3, 1, rec).extremal_position is None
        assert bei.depth_reg_corona_path(3, rec).extremal_position is None
    assert bei.depth_reg_corona_complete(3, 3, withr).extremal_position is not None
    assert bei.depth_reg_corona_complete(1, 1, withr).extremal_position is None
    single = bei.complete_graph(1)
    assert bei.depth_reg_corona_cm_closed(single, withr).extremal_position is None
    assert bei.depth_reg_corona_path(1, withr).extremal_position is None


def test_classify_transfer_and_oracle_agreement():
    # complete base, partial attach: verdicts copy the pendant's
    p4 = block(bei.path_graph(4))
    verdicts = bei.depth_reg_corona_complete(3, 2, p4).verdicts
    assert verdicts["cm"].value is True
    assert verdicts["unmixed"].value is True
    assert verdicts["accessible"].value is True
    # full corona with a non-complete pendant fails, and the oracle agrees
    v2 = bei.depth_reg_corona_complete(2, 2, block(bei.path_graph(3))).verdicts
    assert v2["unmixed"].value is False and v2["cm"].value is False
    prod = full_corona(bei.complete_graph(2), bei.path_graph(3))
    assert not bei.enumerate_cutsets(prod).is_unmixed
    # complete pendant on a complete base is Cohen-Macaulay
    v3 = bei.depth_reg_corona_complete(3, 3, block(bei.complete_graph(2))).verdicts
    assert all(v.value is True for v in v3.values())
    # a clique path that is not complete gives no verdict but false
    v4 = bei.depth_reg_corona_path(3, block(bei.complete_graph(2))).verdicts
    assert all(v.value is False for v in v4.values())


def test_classify_cone_case():
    verdicts = bei.depth_reg_corona_complete(1, 1, block(bei.path_graph(3))).verdicts
    assert verdicts["cm"].value is False  # positive defect
    assert verdicts["unmixed"].value is None
    vk = bei.depth_reg_corona_complete(1, 1, block(bei.complete_graph(3))).verdicts
    assert all(v.value is True for v in vk.values())


def oracle_record(h_graph):
    """A pendant record whose dimension is the oracle's.  The dimension
    formulas read only h and dim H, so depth and reg are placeholders, with
    reg 1 exactly for a complete pendant as a record requires (a connected
    graph that is not complete has reg >= 2)."""
    h = h_graph.n
    return bei.BaseInvariants(
        h=h,
        dim_q=bei.dimension_oracle(h_graph),
        depth_q=h + 1,
        reg_q=1 if h_graph == bei.complete_graph(h) else 2,
    )


def test_dimension_formula_matches_the_oracle_on_small_coronas():
    # every L-corona and full corona of K_n (n <= 3) over a connected atlas
    # pendant on at most 6 vertices, with at most 20 product vertices
    products = 0
    for h_graph in connected_atlas(6):
        h = h_graph.n
        rec = oracle_record(h_graph)
        for n in (1, 2, 3):
            for ell in range(1, n + 1):
                if n + ell * h > 20:
                    continue
                spec = bei.CoronaSpec(bei.complete_graph(n), (1 << ell) - 1, h_graph)
                want = bei.dimension_oracle(bei.l_corona(spec))
                assert dim_l_corona(n, ell, rec) == want, (bei.to_graph6(h_graph), n, ell)
                products += 1
    assert products == 746


def test_clique_path_dimension_formula_matches_the_oracle():
    # every corona of a clique path on at most 7 vertices over a connected
    # atlas pendant on at most 5 vertices, with at most 24 product vertices:
    # b * dim H + [dim H = h + 1] * alpha(B)
    pendants = [(h_graph, oracle_record(h_graph)) for h_graph in connected_atlas(5)]
    products = 0
    for b_graph in connected_atlas(7):
        if not bei.is_cm_closed(b_graph):
            continue
        for h_graph, rec in pendants:
            if b_graph.n * (1 + h_graph.n) > 24:
                continue
            want = bei.dimension_oracle(full_corona(b_graph, h_graph))
            got = bei.depth_reg_corona_cm_closed(b_graph, rec).dim_q
            assert got == want, (bei.to_graph6(b_graph), bei.to_graph6(h_graph))
            products += 1
    assert products == 321


def test_every_family_with_a_complete_pendant_matches_its_block_graph_record():
    # a corona with a complete pendant is a block graph, so its own record
    # gives depth and reg by the block-graph rules (Ene-Herzog-Hibi) and dim
    # and the verdicts by enumeration: an independent check of every branch
    # for K_1, K_2 and K_3 pendants, with at most 20 product vertices
    clique_paths = [g for g in connected_atlas(6) if bei.is_cm_closed(g)]
    products = 0
    for h in (1, 2, 3):
        pendant = bei.complete_graph(h)
        rec = block(pendant)
        cases = [
            (bei.depth_reg_corona_complete(n, ell, rec),
             bei.l_corona(bei.CoronaSpec(bei.complete_graph(n), (1 << ell) - 1, pendant)))
            for n in range(1, 6)
            for ell in range(1, n + 1)
        ]
        cases += [
            (bei.depth_reg_corona_path(n, rec), full_corona(bei.path_graph(n), pendant))
            for n in range(1, 6)
        ]
        cases += [
            (bei.depth_reg_corona_cm_closed(b_graph, rec), full_corona(b_graph, pendant))
            for b_graph in clique_paths
            if b_graph.n * (1 + h) <= 20
        ]
        for rep, product in cases:
            want = block(product)
            got = (rep.dim_q, rep.depth_q, rep.reg_q,
                   *(rep.verdicts[k].value for k in ("unmixed", "accessible", "cm")))
            assert got == (want.dim_q, want.depth_q, want.reg_q,
                           want.is_unmixed, want.is_accessible, want.is_cm), (
                rep.family, bei.to_graph6(product))
            products += 1
    assert products == 119


def test_report_json_shape():
    rep = bei.depth_reg_corona_complete(2, 2, block(bei.path_graph(3)))
    js = rep.to_json()
    assert js["dim"] == {"value": 9, "provenance": "formula:l-corona-dimension"}
    assert js["depth"]["value"] == 8
    assert js["verdicts"]["cm"] == {
        "value": False,
        "rule": "full-corona-needs-both-factors-complete",
    }
    assert js["extremal_betti_position"] == [8, 12]


@pytest.mark.parametrize("keywords", [True, False], ids=["keywords", "positional"])
def test_report_rejects_a_wrong_defect(keywords):
    p3 = block(bei.path_graph(3))
    rep = bei.depth_reg_corona_complete(3, 2, p3)
    fields = {
        "family": rep.family,
        "base": p3,
        "product_vertices": rep.product_vertices,
        "depth_q": rep.depth_q,
        "reg_q": rep.reg_q,
        "dim_q": rep.dim_q,
        "extremal_position": None,
        "verdicts": rep.verdicts,
        "rule": rep.rule,
    }

    def build(**changes):
        values = {**fields, **changes}
        if keywords:
            return bei.InvariantReport(**values)
        return bei.InvariantReport(*values.values())

    assert build().cmdef == rep.cmdef
    # every report's dimension has the one provenance, which is not stored
    assert build().to_json()["dim"] == rep.to_json()["dim"] == {
        "value": rep.dim_q,
        "provenance": "formula:l-corona-dimension",
    }
    with pytest.raises(ValueError, match="negative"):
        build(dim_q=rep.depth_q - 1)
    flipped = {**rep.verdicts, "cm": bei.Verdict(not rep.verdicts["cm"].value, "flipped")}
    with pytest.raises(ValueError, match="cm verdict"):
        build(verdicts=flipped)
    with pytest.raises(TypeError):
        build(verdicts=flipped, dim_q=None)  # every report has a dimension


def test_every_family_states_cm_exactly_at_defect_zero():
    # every family over every block-graph pendant on at most 5 vertices; a
    # report whose cm verdict disagreed with its defect would be refused on
    # construction
    reports = []
    for g in connected_atlas(5):
        if not bei.is_block_graph(g):
            continue
        rec = block(g)
        for n in (1, 2, 3, 4):
            for ell in range(1, n + 1):
                reports.append(bei.depth_reg_corona_complete(n, ell, rec))
            reports.append(bei.depth_reg_corona_path(n, rec))
        for b_graph in (bei.complete_graph(3), bei.Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])):
            reports.append(bei.depth_reg_corona_cm_closed(b_graph, rec))
    assert len(reports) == 272
    for rep in reports:
        assert rep.verdicts["cm"].value is (rep.cmdef == 0), rep

