"""``bei gadget``: the diameter-2 and diameter-3 wrappers of a graph, or a
check of what the reduction claims for them.  Each wrapper is the L-corona
that ``construct`` prints: d2 is ``--corona K2 H --attach 0`` (apex 0,
companion 1, the copy of H at 2..h+1), d3 ``--corona K3 H --attach 0,1``."""

from __future__ import annotations

import argparse
import json

from .bms import verify_reduction_d2, verify_reduction_d3
from .cli import _add_common, _applies_only, _input_graph, _render_graph, _write_out
from .corona import gadget_d2, gadget_d3


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=("d2", "d3"))
    p.add_argument("--verify", action="store_true")
    p.add_argument(
        "--out",
        choices=("graph6", "dot", "edgelist", "json"),
        help="without --verify: output format (default: graph6)",
    )
    _add_common(p)


def run(args) -> int:
    _applies_only(args, "--out", not args.verify, "a gadget built without --verify")
    h = _input_graph(args, args.verify, "--verify")
    if args.verify:
        verify = verify_reduction_d2 if args.kind == "d2" else verify_reduction_d3
        fields = verify(h, args.bound)._asdict().items()
        payload = {"kind": args.kind, **{k: v for k, v in fields if v is not None}}
        _write_out(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    build = gadget_d2 if args.kind == "d2" else gadget_d3
    _write_out(_render_graph(build(h), args.out or "graph6"), args.output)
    return 0
