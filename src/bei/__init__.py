"""Cutset combinatorics and invariant formulas for binomial edge ideals of
corona-type graph products."""

__version__ = "0.1.0"

from .graph import (
    Graph,
    VertexSet,
    complete_graph,
    cone,
    cycle_graph,
    diameter,
    distances_from,
    internal_vertex_count,
    is_block_graph,
    is_cm_closed,
    is_complete,
    is_connected,
    iter_members,
    members,
    path_graph,
    simplicial_vertices,
    vset,
)
from .io import (
    format_edge_list,
    from_graph6,
    graph_from_json,
    graph_from_name,
    graph_to_json,
    parse_edge_list,
    to_dot,
    to_graph6,
)
from .cutsets import (
    DEFAULT_BOUND,
    CutsetReport,
    EnumerationBoundError,
    accessibility_witness_chain,
    dimension_oracle,
    enumerate_cutsets,
    is_accessible,
    is_cutset,
    iter_cutsets,
    unmixed_report,
)
from .corona import (
    CoronaSpec,
    corona,
    corona_spec_from_json,
    gadget_d2,
    gadget_d3,
    l_corona,
)
from .invariants import (
    BaseInvariants,
    InvariantReport,
    Verdict,
    base_invariants_block_graph,
    depth_reg_corona_cm_closed,
    depth_reg_corona_complete,
    depth_reg_corona_path,
)
from .bms import (
    ReductionCheck,
    ScanRecord,
    bms_scan,
    verify_reduction_d2,
    verify_reduction_d3,
)
from .cas import emit_cas_script
