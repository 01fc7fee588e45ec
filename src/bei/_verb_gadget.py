"""``bei gadget``: the diameter-d wrapper of a graph H, d in {2, 3}, or a
check of what the reduction claims for it.  The wrapper is K_d with a copy
of H at each of its first d-1 vertices: the L-corona that ``construct
--corona K<d> H --attach 0,..,d-2`` prints."""

from __future__ import annotations

import argparse
import json

from .bms import verify_reduction_d2, verify_reduction_d3
from .cli import _add_common, _applies_only, _input_graph, _write_out
from .corona import gadget
from .io import _GRAPH_WRITERS


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=("d2", "d3"))
    p.add_argument("--verify", action="store_true")
    p.add_argument(
        "--out",
        choices=tuple(_GRAPH_WRITERS),
        help=f"without --verify: output format (default: {next(iter(_GRAPH_WRITERS))})",
    )
    _add_common(p)


def run(args) -> int:
    _applies_only(args, "--out", not args.verify, "a gadget built without --verify")
    h = _input_graph(args, args.verify, "--verify")
    if args.verify:
        verify = verify_reduction_d2 if args.kind == "d2" else verify_reduction_d3
        payload = {"kind": args.kind, **verify(h, args.bound)._asdict()}
        _write_out(json.dumps(payload, indent=2) + "\n")
        return 0
    write = _GRAPH_WRITERS[args.out or next(iter(_GRAPH_WRITERS))]
    _write_out(write(gadget(h, int(args.kind[1]))))
    return 0
