"""``bei check``: one combinatorial verdict for one graph, with a witness
where it fails."""

from __future__ import annotations

import argparse
import json

from .cli import _add_common, _applies_only, _graph_arg, _int_list, _one_of, _write_out
from .cutsets import accessibility_witness_chain, check_bound, enumerate_cutsets, is_cutset, unmixed_report
from .graph import Graph, checked_vset, is_cm_closed, members


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--unmixed", action="store_true")
    p.add_argument("--accessible", action="store_true")
    p.add_argument("--accessible-system", action="store_true")
    p.add_argument("--cutset", help="comma-separated vertices to test")
    p.add_argument("--chain", action="store_true", help="with --cutset: also search a removal chain")
    p.add_argument("--cm-closed", action="store_true")
    _add_common(p)


def _labels(g: Graph, mask: int) -> list[str]:
    return [g.label(v) for v in members(mask)]


def run(args) -> int:
    mode = _one_of(args, "--unmixed", "--accessible", "--accessible-system", "--cutset", "--cm-closed")
    _applies_only(args, "--chain", mode == "--cutset", "--cutset")
    searches = mode in ("--unmixed", "--accessible", "--accessible-system")
    # a --chain search is bounded by the size of its set, not by n
    _applies_only(
        args, "--bound", searches or args.chain, "--unmixed, --accessible, --accessible-system and --chain"
    )
    g = _graph_arg(args.input, (lambda n: check_bound(n, args.bound)) if searches else None)
    if mode == "--unmixed":
        report = enumerate_cutsets(g, bound=args.bound)
        violation = report.unmixed_violation
        result = {"check": "unmixed", "value": violation is None}
        if violation is not None:
            mask, w = violation
            result["witness"] = _labels(g, mask)
            result["witness_components"] = w
            result["expected_components"] = mask.bit_count() + report.base_components
    elif mode == "--accessible":
        report = unmixed_report(g, bound=args.bound)
        stuck = None if report is None else report.stuck_cutset
        result = {"check": "accessible", "value": report is not None and stuck is None}
        if report is None:
            result["reason"] = "not-unmixed"
        elif stuck is not None:
            result["reason"] = "no-removable-vertex"
            result["witness"] = _labels(g, stuck)
    elif mode == "--accessible-system":
        stuck = enumerate_cutsets(g, bound=args.bound).stuck_cutset
        result = {"check": "accessible-system", "value": stuck is None}
        if stuck is not None:
            result["witness"] = _labels(g, stuck)
    elif mode == "--cutset":
        mask = checked_vset(_int_list(args.cutset, "--cutset"), "--cutset", g.n)
        value = is_cutset(g, mask)
        result = {"check": "cutset", "set": _labels(g, mask), "value": value}
        if value and args.chain:
            chain = accessibility_witness_chain(g, mask, args.bound)
            result["witness_chain"] = None if chain is None else [g.label(v) for v in chain]
    else:
        result = {"check": "cm-closed", "value": is_cm_closed(g)}
    _write_out(json.dumps(result, indent=2) + "\n", args.output)
    return 0
