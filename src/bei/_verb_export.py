"""``bei export``: a graph in another format, or as a CAS script."""

from __future__ import annotations

import argparse

from .cas import DIALECTS, emit_cas_script
from .cli import _add_common, _applies_only, _input_graph, _render_graph, _write_out
from .cutsets import enumerate_cutsets


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=("graph6", "dot", "edgelist", "json", "cas"), default="graph6", required=False)
    p.add_argument("--dialect", choices=DIALECTS, help="with --out cas: script dialect (default: m2)")
    p.add_argument("--oracle-expected", action="store_true", help="with --out cas: embed oracle verdicts")
    _add_common(p)


def run(args) -> int:
    _applies_only(args, "--oracle-expected", args.out == "cas", "--out cas")
    _applies_only(args, "--dialect", args.out == "cas", "--out cas")
    g = _input_graph(args, args.oracle_expected, "--oracle-expected")
    if args.out == "cas":
        expected = None
        if args.oracle_expected:
            report = enumerate_cutsets(g, bound=args.bound)
            unmixed = report.is_unmixed
            expected = {
                "dim": report.oracle_dimension,
                "unmixed": unmixed,
                "accessible": unmixed and report.is_accessible_system,
            }
        _write_out(emit_cas_script(g, dialect=args.dialect or "m2", expected=expected), args.output)
        return 0
    _write_out(_render_graph(g, args.out), args.output)
    return 0
