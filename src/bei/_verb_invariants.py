"""``bei invariants``: the closed-form report of a corona family over a
pendant record, and optionally a CAS script that checks it."""

from __future__ import annotations

import argparse
import json

from .cas import DIALECTS, emit_cas_script
from .cli import _add_common, _applies_only, _given, _graph_arg, _named_file, _one_of, _write_out
from .corona import CoronaSpec, l_corona
from .cutsets import check_bound
from .graph import Graph, complete_graph, is_connected, path_graph
from .invariants import (
    BaseInvariants,
    base_invariants_block_graph,
    depth_reg_corona_cm_closed,
    depth_reg_corona_complete,
    depth_reg_corona_path,
)
from .io import read_json


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=("full-corona", "l-corona", "cm-closed", "path"))
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--b-graph", help="clique-path base graph (cm-closed family)")
    p.add_argument("--pendant-block-graph", help="pendant graph with block-graph closed forms")
    p.add_argument(
        "--pendant-base-json",
        help="user-supplied pendant invariants (JSON file); pd, is_complete and is_cm "
        "follow from h, dim, depth and reg (2h - depth, reg = 1, depth = dim) and must agree",
    )
    p.add_argument(
        "--pendant-graph",
        help="pendant graph for --emit-cas, checked against the pendant record",
    )
    p.add_argument("--emit-cas", help="also write a verification script for the product")
    p.add_argument("--dialect", choices=DIALECTS, help=f"with --emit-cas: script dialect (default: {DIALECTS[0]})")
    _add_common(p, input_flag=False)


def _base_record(args) -> tuple[BaseInvariants, Graph | None]:
    """The pendant record and the pendant graph, if any, checked against
    each other: a block graph must be the pendant graph itself, a JSON
    record must match its size, and the pendant graph must be connected."""
    source = _one_of(args, "--pendant-block-graph", "--pendant-base-json")
    pendant_graph = block_graph = None
    if args.pendant_graph is not None:
        pendant_graph = _graph_arg(args.pendant_graph)
    if source == "--pendant-block-graph":
        # refused above the bound before it is built, as an --input graph is
        block_graph = _graph_arg(args.pendant_block_graph, lambda n: check_bound(n, args.bound))
        base = base_invariants_block_graph(block_graph, bound=args.bound)
    else:
        obj = read_json(_named_file(args.pendant_base_json, "--pendant-base-json").read_text())
        base = BaseInvariants.from_json(obj)
    if pendant_graph is None:
        return base, block_graph
    if pendant_graph.n != base.h or block_graph not in (None, pendant_graph):
        raise ValueError("pendant graph disagrees with the pendant invariants")
    if not is_connected(pendant_graph):
        raise ValueError("pendant graph must be connected")
    return base, pendant_graph


def run(args) -> int:
    family = args.family
    _applies_only(args, "--n", family != "cm-closed", "--family full-corona, l-corona and path")
    _applies_only(args, "--ell", family == "l-corona", "--family l-corona")
    _applies_only(args, "--b-graph", family == "cm-closed", "--family cm-closed")
    _applies_only(args, "--dialect", _given(args, "--emit-cas"), "--emit-cas")
    b_graph = None
    if family == "cm-closed":
        if not args.b_graph:
            raise ValueError("--family cm-closed needs --b-graph")
        b_graph = _graph_arg(args.b_graph)
    elif family == "l-corona" and (args.n is None or args.ell is None):
        raise ValueError("--family l-corona needs --n and --ell")
    elif args.n is None:
        raise ValueError(f"--family {family} needs --n")
    # the block-graph record is the only cutset search
    _applies_only(args, "--bound", _given(args, "--pendant-block-graph"), "--pendant-block-graph")
    base, pendant_graph = _base_record(args)
    if family == "cm-closed":
        report = depth_reg_corona_cm_closed(b_graph, base)
    elif family == "path":
        report = depth_reg_corona_path(args.n, base)
    else:
        ell = args.ell if family == "l-corona" else args.n
        report = depth_reg_corona_complete(args.n, ell, base)
    values = report.to_json()

    if args.emit_cas is not None:
        target = _named_file(args.emit_cas, "--emit-cas")
        # only the script needs the product, and so the base graph
        if pendant_graph is None:
            raise ValueError("--emit-cas needs a pendant graph (--pendant-block-graph or --pendant-graph)")
        if b_graph is None:
            b_graph = (path_graph if family == "path" else complete_graph)(args.n)
        attach = (1 << args.ell) - 1 if family == "l-corona" else b_graph.full_mask
        expected = {"family": report.family}
        for key, entry in [
            *((key, values[key]) for key in ("dim", "depth", "reg", "pd", "cmdef")),
            *values["verdicts"].items(),
        ]:
            if entry["value"] is not None:
                expected[key] = entry["value"]
        product = l_corona(CoronaSpec(b_graph, attach, pendant_graph))
        script = emit_cas_script(product, dialect=args.dialect, expected=expected)
        target.write_text(script)

    _write_out(json.dumps(values, indent=2) + "\n", args.output)
    return 0
