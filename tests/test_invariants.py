"""The closed-form engine: pendant records, dimension/depth/regularity
formulas, Cohen-Macaulay defect, extremal Betti positions, classification,
and the dimension formula against the cutset oracle."""

import pytest

import bei
from bei import vset
from bei.invariants import CM_CLOSED, FULL_CORONA, L_CORONA, PATH

from conftest import connected_atlas


def block(g):
    return bei.base_invariants_block_graph(g)


def test_base_invariants_validation():
    good = dict(h=3, dim_q=4, depth_q=4, reg_q=2, pd=2, is_complete=False)
    bei.BaseInvariants(**good)
    with pytest.raises(ValueError):
        bei.BaseInvariants(**{**good, "pd": 3})  # breaks pd + depth = 2h
    with pytest.raises(ValueError):
        bei.BaseInvariants(h=3, dim_q=5, depth_q=5, reg_q=2, pd=1, is_complete=False)
    with pytest.raises(ValueError):
        bei.BaseInvariants(h=3, dim_q=3, depth_q=4, reg_q=2, pd=2, is_complete=False)
    with pytest.raises(ValueError):
        bei.BaseInvariants(h=3, dim_q=4, depth_q=4, reg_q=2, pd=2, is_complete=True)
    with pytest.raises(ValueError):
        bei.BaseInvariants(**{**good, "r_extremal": 1})


def test_base_invariants_json_roundtrip():
    rec = block(bei.path_graph(4))
    assert bei.BaseInvariants.from_json(rec.to_json()) == rec


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
        prod = bei.corona(bei.complete_graph(1), bei.complete_graph(h))
        assert bei.is_complete(prod)
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
        pd=inner.pd,
        is_complete=False,
    )
    assert pend.h == 8 and pend.dim_q - pend.depth_q == 1
    # oracle cross-check at desk scale: dim of the 19-vertex product
    inner_graph = bei.corona(bei.complete_graph(2), bei.path_graph(3))
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
    rep = bei.depth_reg_corona_cm_closed(
        bei.path_graph(3), k2, pendant=bei.complete_graph(2)
    )
    assert rep.family == CM_CLOSED and rep.b == 3
    assert rep.depth_q == 1 + 3 * 3 == 10
    assert rep.reg_q == 4
    # the product is a block graph on 9 vertices: check the closed forms
    prod = bei.corona(bei.path_graph(3), bei.complete_graph(2))
    assert bei.is_block_graph(prod)
    assert rep.depth_q == prod.n + 1
    assert rep.reg_q == bei.internal_vertex_count(prod) + 1
    # dimension comes from the oracle and exceeds depth: not Cohen-Macaulay
    assert rep.dim_q == bei.dimension_oracle(prod) == 11
    assert rep.cmdef == 1
    assert rep.verdicts["cm"].value is False
    assert rep.verdicts["unmixed"].value is False


def test_cm_closed_without_pendant_graph_has_no_dimension():
    p3 = block(bei.path_graph(3))
    rep = bei.depth_reg_corona_cm_closed(bei.path_graph(3), p3)
    assert rep.dim_q is None and rep.cmdef is None
    assert rep.dim_provenance == "oracle-unavailable"


def test_cm_closed_over_the_bound_builds_no_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("the product was built")

    monkeypatch.setattr(bei.invariants, "corona", no_product)
    p3 = bei.path_graph(3)
    rep = bei.depth_reg_corona_cm_closed(bei.path_graph(7), block(p3), pendant=p3)
    assert 7 * 4 > bei.DEFAULT_BOUND
    assert rep.dim_q is None
    assert rep.dim_provenance == "oracle-unavailable"


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
            assert (a.depth_q, a.reg_q, a.pd) == (b.depth_q, b.reg_q, b.pd)
            assert a.extremal_position == b.extremal_position
            assert a.family == PATH


def test_extremal_positions_golden():
    base = bei.BaseInvariants(
        h=4, dim_q=6, depth_q=4, reg_q=3, pd=4, is_complete=False, r_extremal=3
    )
    p_h, r_h = base.pd, base.r_extremal

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
    noncomplete = bei.BaseInvariants(
        h=4, dim_q=6, depth_q=4, reg_q=3, pd=4, is_complete=False
    )
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
    prod = bei.corona(bei.complete_graph(2), bei.path_graph(3))
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


def test_classify_validates_pendant_size():
    # a pendant graph that disagrees with its record is refused wherever
    # the product is built for the dimension oracle
    k2 = block(bei.complete_graph(2))
    with pytest.raises(ValueError, match="disagrees"):
        bei.depth_reg_corona_path(3, k2, pendant=bei.path_graph(3))
    with pytest.raises(ValueError, match="disagrees"):
        bei.depth_reg_corona_cm_closed(bei.path_graph(3), k2, pendant=bei.path_graph(3))


def test_dimension_formula_matches_the_oracle_on_small_coronas():
    # every L-corona and full corona of K_n (n <= 3) over a connected atlas
    # pendant on at most 6 vertices, with at most 20 product vertices; the
    # formula reads only h and dim H, so the record's depth is a placeholder
    products = 0
    for h_graph in connected_atlas(6):
        h = h_graph.n
        rec = bei.BaseInvariants(
            h=h,
            dim_q=bei.dimension_oracle(h_graph),
            depth_q=h + 1,
            reg_q=1,
            pd=h - 1,
            is_complete=bei.is_complete(h_graph),
        )
        for n in (1, 2, 3):
            for ell in range(1, n + 1):
                if n + ell * h > 20:
                    continue
                spec = bei.CoronaSpec(bei.complete_graph(n), (1 << ell) - 1, h_graph)
                want = bei.dimension_oracle(bei.l_corona(spec))
                assert dim_l_corona(n, ell, rec) == want, (bei.to_graph6(h_graph), n, ell)
                products += 1
    assert products == 746


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
        "dim_provenance": rep.dim_provenance,
    }

    def build(**changes):
        values = {**fields, **changes}
        if keywords:
            return bei.InvariantReport(**values)
        return bei.InvariantReport(*values.values())

    assert build().cmdef == rep.cmdef
    with pytest.raises(ValueError, match="negative"):
        build(dim_q=rep.depth_q - 1)

