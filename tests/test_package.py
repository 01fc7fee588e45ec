"""The package namespace: ``import bei`` loads only what ``bei.corona``
needs, and every public name is still reached through ``bei``."""

import importlib
import json

import pytest

import bei
from conftest import run_python

# the public names, written out rather than read from ``bei.__all__``, by
# the submodule that defines each
PUBLIC = {
    "graph": (
        "Graph", "VertexSet", "complete_graph", "cycle_graph", "diameter",
        "distances_from", "internal_vertex_count", "is_block_graph", "is_cm_closed",
        "is_connected", "iter_members", "members", "path_graph",
        "simplicial_vertices", "vset",
    ),
    "io": (
        "format_edge_list", "from_graph6", "graph_from_json", "graph_from_name",
        "graph_to_json", "parse_edge_list", "to_dot", "to_graph6",
    ),
    "cutsets": (
        "DEFAULT_BOUND", "CutsetReport", "EnumerationBoundError",
        "accessibility_witness_chain", "dimension_oracle", "enumerate_cutsets",
        "is_accessible", "is_cutset", "iter_cutsets", "unmixed_report",
    ),
    "corona": (
        "CoronaSpec", "corona", "corona_spec_from_json", "gadget", "l_corona",
    ),
    "invariants": (
        "BaseInvariants", "InvariantReport", "Verdict", "base_invariants_block_graph",
        "depth_reg_corona_cm_closed", "depth_reg_corona_complete", "depth_reg_corona_path",
    ),
    "bms": ("ReductionCheck", "ScanRecord", "bms_scan", "verify_reduction_d2", "verify_reduction_d3"),
    "cas": ("emit_cas_script",),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_import_bei_loads_only_the_corona_function_and_what_it_uses():
    code = (
        "import json, sys, bei; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'bei')))"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["bei", "bei.corona", "bei.graph", "bei.io"]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_public_name_is_the_submodule_object(module, name):
    assert name in dir(bei)
    assert getattr(bei, name) is getattr(importlib.import_module(f"bei.{module}"), name)


def test_all_lists_the_public_names_once():
    assert sorted(bei.__all__) == sorted(name for _, name in NAMES)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from bei import *", namespace)
    for _, name in NAMES:
        assert namespace[name] is getattr(bei, name), name


def test_submodules_are_attributes_and_unknown_names_are_not():
    for module in (*PUBLIC, "cli"):
        if module != "corona":  # bound to the function of that name
            assert getattr(bei, module).__name__ == f"bei.{module}"
    with pytest.raises(AttributeError, match="no_such_name"):
        bei.no_such_name
    with pytest.raises(ImportError):
        exec("from bei import no_such_name", {})


def test_a_name_rebound_in_its_submodule_is_seen_through_bei(monkeypatch):
    # the traced benchmark rebinds names in the submodules and then undoes
    # it; a copy cached in ``bei`` would keep the wrapper
    original = bei.from_graph6
    monkeypatch.setattr(bei.io, "from_graph6", lambda text: None)
    assert bei.from_graph6 is bei.io.from_graph6 is not original
    monkeypatch.undo()
    assert bei.from_graph6 is original
