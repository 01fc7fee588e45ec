"""``bei construct``: a corona product, printed in one graph format."""

from __future__ import annotations

import argparse

from .cli import _graph_arg, _int_list, _write_out
from .corona import CoronaSpec, l_corona
from .graph import checked_vset
from .io import _GRAPH_WRITERS


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--corona",
        required=True,
        nargs=2,
        metavar=("BASE", "PENDANT"),
        help="a copy of PENDANT joined to each attach vertex of BASE; a cone over G is --corona K1 G",
    )
    p.add_argument(
        "--attach",
        help="comma-separated base vertices carrying copies (default: every base vertex)",
    )
    p.add_argument("--out", choices=tuple(_GRAPH_WRITERS), default=next(iter(_GRAPH_WRITERS)))


def run(args) -> int:
    base, pend = map(_graph_arg, args.corona)
    attach = base.full_mask
    if args.attach is not None:
        attach = checked_vset(_int_list(args.attach, "--attach"), "--attach", base.n)
    _write_out(_GRAPH_WRITERS[args.out](l_corona(CoronaSpec(base, attach, pend))))
    return 0
