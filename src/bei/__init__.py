"""Cutset combinatorics and invariant formulas for binomial edge ideals of
corona-type graph products.

``import bei`` loads only ``bei.corona`` and, through it, ``bei.graph`` and
``bei.io``: ``bei.corona`` must stay bound to the function ``corona``, not
to its submodule, and only an eager ``from .corona import corona`` does
that.  Every other public name, and every submodule, is loaded on first use
by the module ``__getattr__`` (PEP 562), so a program loads only what it
uses.  A ``bei`` command then compiles ``bei.cli`` while only those three
are resident, which lowers its peak memory, and of the verb modules
``bei._verb_<verb>`` it compiles only the one it runs.  The names are
looked up afresh on each access, never cached here, so a name rebound in
its submodule is seen through ``bei`` too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "Graph",
            "VertexSet",
            "complete_graph",
            "cycle_graph",
            "diameter",
            "distances_from",
            "internal_vertex_count",
            "is_block_graph",
            "is_cm_closed",
            "is_connected",
            "iter_members",
            "members",
            "path_graph",
            "simplicial_vertices",
            "vset",
        ),
        "graph",
    ),
    **dict.fromkeys(
        (
            "format_edge_list",
            "from_graph6",
            "graph_from_json",
            "graph_from_name",
            "graph_to_json",
            "parse_edge_list",
            "to_dot",
            "to_graph6",
        ),
        "io",
    ),
    **dict.fromkeys(
        (
            "DEFAULT_BOUND",
            "CutsetReport",
            "EnumerationBoundError",
            "accessibility_witness_chain",
            "dimension_oracle",
            "enumerate_cutsets",
            "is_accessible",
            "is_cutset",
            "iter_cutsets",
            "unmixed_report",
        ),
        "cutsets",
    ),
    **dict.fromkeys(
        ("CoronaSpec", "corona", "corona_spec_from_json", "gadget", "l_corona"),
        "corona",
    ),
    **dict.fromkeys(
        (
            "BaseInvariants",
            "InvariantReport",
            "Verdict",
            "base_invariants_block_graph",
            "depth_reg_corona_cm_closed",
            "depth_reg_corona_complete",
            "depth_reg_corona_path",
        ),
        "invariants",
    ),
    **dict.fromkeys(
        ("ReductionCheck", "ScanRecord", "bms_scan", "verify_reduction_d2", "verify_reduction_d3"),
        "bms",
    ),
    "emit_cas_script": "cas",
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})


# binds the function over the submodule attribute its import sets
from .corona import corona  # noqa: E402
