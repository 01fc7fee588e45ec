"""``bei cutsets``: every cutset of a graph, with the verdicts and the
dimension, as one JSON report or as a JSON line per cutset."""

from __future__ import annotations

import argparse
import json
from bisect import bisect_right
from typing import Iterator

from .cli import _add_common, _input_graph, _not_negative, _write_out
from .cutsets import CutsetReport, enumerate_cutsets
from .graph import members


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--size-cap",
        type=int,
        help="list only the cutsets of at most this size (the verdicts and the "
        "dimension still describe the whole family)",
    )
    p.add_argument(
        "--out",
        choices=("json", "jsonl"),
        default="json",
        help="json: one report; jsonl: one line per cutset of the report, in its order "
        "(by size, then by members)",
    )
    _add_common(p)


def _listed(report: CutsetReport, size_cap: int | None) -> int | None:
    """How many of the report's cutsets a ``size_cap`` lists: those of at
    most that size, a prefix of the family sorted by size; None lists all."""
    return None if size_cap is None else bisect_right(report.cutsets, size_cap, key=int.bit_count)


def _report_pieces(report: CutsetReport, size_cap: int | None) -> Iterator[str]:
    """The ``bei cutsets`` JSON report (key order, labels and all) as
    ``json.dumps(..., indent=2)`` writes it, a row a piece.  A ``size_cap``
    lists only the cutsets of at most that size (``_listed``); the verdicts
    and the dimension describe the whole family."""
    listed = _listed(report, size_cap)
    connected = report.connected
    fields = [
        ("n", report.n),
        ("connected", connected),
        ("cutsets", report.cutsets[:listed]),
        ("per_cutset_components", report.per_cutset_components[:listed]),
        ("is_unmixed", report.is_unmixed),
        ("is_accessible_system", report.is_accessible_system),
        ("oracle_dimension", report.oracle_dimension),
        ("size_cap", size_cap),
        ("unmixedness_definition", "standard" if connected else "disconnected-extension"),
    ]
    sep = "{"
    for key, value in fields:
        yield f"{sep}\n  {json.dumps(key)}: "
        sep = ","
        if not isinstance(value, tuple):
            yield json.dumps(value)
            continue
        # never empty: the empty set, of size 0, is always listed
        if key == "cutsets":
            value = (
                "[\n      " + ",\n      ".join(map(str, members(m))) + "\n    ]" if m else "[]"
                for m in value
            )
        row = "[\n    "
        for x in value:
            yield f"{row}{x}"
            row = ",\n    "
        yield "\n  ]"
    yield "\n}\n"


def run(args) -> int:
    cap = args.size_cap
    _not_negative(cap, "--size-cap")
    report = enumerate_cutsets(_input_graph(args), bound=args.bound)
    if args.out == "jsonl":
        listed = _listed(report, cap)
        rows = zip(report.cutsets[:listed], report.per_cutset_components[:listed])
        lines = (json.dumps({"cutset": members(mask), "components": w}) + "\n" for mask, w in rows)
        _write_out(lines)
        return 0
    _write_out(_report_pieces(report, cap))
    return 0
