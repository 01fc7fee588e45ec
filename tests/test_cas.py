"""Verification-script emission: content, dialects, determinism."""

import pytest

import bei


def test_single_edge_generator():
    text = bei.emit_cas_script(bei.complete_graph(2))
    assert text.startswith("--")  # the m2 dialect by default
    assert "x1*y2-x2*y1" in text
    assert "R = QQ[x1,x2,y1,y2];" in text
    assert "regularity Q" in text


def test_generator_order_is_ascending():
    g = bei.Graph(3, [(1, 2), (0, 2), (0, 1)])
    text = bei.emit_cas_script(g)
    i1 = text.index("x1*y2-x2*y1")
    i2 = text.index("x1*y3-x3*y1")
    i3 = text.index("x2*y3-x3*y2")
    assert i1 < i2 < i3


def test_counterexample_has_twelve_generators(square_leaves_product):
    text = bei.emit_cas_script(square_leaves_product)
    assert text.count("-x") == 12
    assert square_leaves_product.m == 12


def test_edgeless_graph():
    m2 = bei.emit_cas_script(bei.complete_graph(1))
    assert "ideal(0_R);" in m2
    sing = bei.emit_cas_script(bei.complete_graph(1), dialect="singular")
    assert "ideal J = 0;" in sing


def test_singular_dialect():
    text = bei.emit_cas_script(bei.path_graph(3), dialect="singular")
    assert text.startswith("//")
    assert "ring R = 0, (x1,x2,x3,y1,y2,y3), dp;" in text
    assert "mres(J, 0);" in text
    assert '"depth =", 6 - (ncols(B) - 1);' in text


def test_expected_comments_canonical_order():
    expected = {"unmixed": True, "dim": 9, "depth": 8}
    text = bei.emit_cas_script(bei.path_graph(2), expected=expected)
    lines = [ln for ln in text.splitlines() if "expected" in ln]
    assert lines == [
        "-- expected dim = 9",
        "-- expected depth = 8",
        "-- expected unmixed = true",
    ]
    # a key outside the canonical order is refused by name, not sorted last
    with pytest.raises(ValueError, match="^expected values have an unknown key 'zeta'$"):
        bei.emit_cas_script(bei.path_graph(2), expected={**expected, "zeta": 1})


def test_emission_is_deterministic(square_leaves_product):
    kw = dict(expected={"dim": 11}, name="probe")
    a = bei.emit_cas_script(square_leaves_product, **kw)
    b = bei.emit_cas_script(square_leaves_product, **kw)
    assert a == b
    g6 = bei.to_graph6(square_leaves_product)
    assert bei.emit_cas_script(square_leaves_product, graph6=g6, **kw) == a


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bei.emit_cas_script(bei.Graph(0))
    with pytest.raises(ValueError):
        bei.emit_cas_script(bei.path_graph(2), dialect="maple")
