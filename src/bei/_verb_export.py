"""``bei export``: a graph in another format, or as a CAS script."""

from __future__ import annotations

import argparse

from .cas import DIALECTS, emit_cas_script
from .cli import _add_common, _applies_only, _input_graph, _write_out
from .cutsets import enumerate_cutsets
from .io import _GRAPH_WRITERS


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=(*_GRAPH_WRITERS, "cas"), default=next(iter(_GRAPH_WRITERS)))
    p.add_argument("--dialect", choices=DIALECTS, help=f"with --out cas: script dialect (default: {DIALECTS[0]})")
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
        _write_out(emit_cas_script(g, dialect=args.dialect, expected=expected))
        return 0
    _write_out(_GRAPH_WRITERS[args.out](g))
    return 0
