"""The value classes: their fields and defaults, no assignment to a field,
no instance ``__dict__``, and equality by field values."""

import pytest

import bei
from bei import cas

from conftest import decompose_cutset, vset


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

# every record type of the library, with its fields and defaults as they
# stand: a caller may build any of them by position or keyword
RECORDS = [
    (bei.ReductionCheck, ("gadget_vertices", "diameter_ok", "accessible_transfer_ok", "distance_cases_ok"), {}),
    (bei.ScanRecord, ("graph6", "n", "diameter", "unmixed", "accessible", "cas_script_path"), {"cas_script_path": None}),
    (cas._Dialect, ("comment", "ring", "ideal_open", "ideal_close", "zero_ideal", "queries", "suffix"), {}),
    (bei.CoronaSpec, ("base", "attach_set", "pendant"), {}),
    (bei.CutsetReport, ("n", "cutsets", "per_cutset_components"), {}),
    (bei.Verdict, ("value", "rule"), {}),
    (
        bei.BaseInvariants,
        ("h", "dim_q", "depth_q", "reg_q", "is_unmixed", "is_accessible", "r_extremal", "provenance"),
        {"is_unmixed": None, "is_accessible": None, "r_extremal": None, "provenance": "user-supplied"},
    ),
    (
        bei.InvariantReport,
        (
            "family", "base", "product_vertices", "depth_q", "reg_q", "dim_q", "extremal_position",
            "verdicts", "rule", "n", "ell", "b", "notes",
        ),
        {"n": None, "ell": None, "b": None, "notes": ()},
    ),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_fields_and_defaults(cls, fields, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults


INSTANCES = [v for v, _ in VALUES if type(v).__module__.startswith("bei.")] + [cas._dialect("m2")]


@pytest.mark.parametrize("value", INSTANCES, ids=[type(v).__name__ for v in INSTANCES])
def test_records_hold_no_instance_dict_and_show_their_class(value):
    assert not hasattr(value, "__dict__")
    assert repr(value).startswith(type(value).__name__ + "(")
    assert tuple(value._asdict()) == type(value)._fields
    assert tuple(value._asdict().values()) == tuple(value)


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
