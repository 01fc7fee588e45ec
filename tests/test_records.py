"""The value classes: no assignment to a field, and equality by field
values."""

import pytest

import bei
from bei import vset

from conftest import decompose_cutset


def block(g):
    return bei.base_invariants_block_graph(g)


def one_of_each():
    """One instance of every value class, with a field name to assign."""
    p3 = bei.path_graph(3)
    spec = bei.CoronaSpec(bei.complete_graph(2), vset([0]), p3)
    return [
        (bei.ReductionCheck(5, True, True, True), "diameter_ok"),
        (next(bei.bms_scan(["Bw"])), "n"),
        (spec, "base"),
        (decompose_cutset(spec, vset([0])), "t0"),
        (bei.enumerate_cutsets(p3), "cutsets"),
        (block(p3), "h"),
        (bei.depth_reg_corona_complete(2, 1, block(p3)), "dim_q"),
        (bei.Verdict(True, "rule"), "value"),
    ]


VALUES = one_of_each()


@pytest.mark.parametrize("value, field", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1


def checked_records():
    """A record of each class whose ``__new__`` checks its fields, with a
    change that one of those checks refuses."""
    p3 = bei.path_graph(3)
    spec = bei.CoronaSpec(p3, 1, bei.path_graph(2))
    report = bei.depth_reg_corona_complete(2, 1, block(p3))
    return [
        (spec, {"attach_set": 0}, "attach set must be nonempty"),
        (block(p3), {"reg_q": 0, "dim_q": 1}, "reg below 1"),
        (report, {"dim_q": report.depth_q - 1}, "negative Cohen-Macaulay defect"),
    ]


CHECKED = checked_records()


@pytest.mark.parametrize(
    "value, changes, error", CHECKED, ids=[type(v).__name__ for v, _, _ in CHECKED]
)
def test_replace_and_make_run_the_checks(value, changes, error):
    with pytest.raises(ValueError, match=error):
        value._replace(**changes)
    with pytest.raises(ValueError, match=error):
        type(value)._make({**value._asdict(), **changes}.values())
    assert value._replace() == value == type(value)._make(value)


def test_equality_is_by_field_values():
    p4 = bei.path_graph(4)
    assert block(p4) == block(bei.path_graph(4))
    assert block(p4) != block(bei.path_graph(3))
    assert bei.enumerate_cutsets(p4) == bei.unmixed_report(p4)
    spec = bei.CoronaSpec(bei.complete_graph(2), vset([0]), p4)
    assert spec == bei.CoronaSpec(base=bei.complete_graph(2), attach_set=1, pendant=p4)
