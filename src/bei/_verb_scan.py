"""``bei scan``: the verdicts of every graph in a graph6 corpus, a JSON
line each, written as the scan finds them."""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys

from .bms import bms_scan
from .cas import DIALECTS
from .cli import _add_common, _applies_only, _given, _int_list, _named_file, _not_negative
from .graph import _brief


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--diameter", help="comma-separated diameters to keep")
    p.add_argument("--max-n", type=int)
    p.add_argument("--scripts-dir", help="write scripts for accessible graphs on at least one vertex")
    p.add_argument("--dialect", choices=DIALECTS, help=f"with --scripts-dir: script dialect (default: {DIALECTS[0]})")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="upper bound on worker processes, used only once the in-process "
        "work passes a fixed threshold (default: 1)",
    )
    p.add_argument("--input", "-i", required=True, help="graph6 corpus, one graph a line: file, or -")
    _add_common(p, input_flag=False)


def run(args) -> int:
    _named_file(args.input, "--input")
    if args.scripts_dir is not None:
        _named_file(args.scripts_dir, "--scripts-dir")
        # the scripts directory is made at the first accessible graph: a file
        # in its place, or in the place of a directory above it, is refused
        # before any record is written, not there
        head = os.path.abspath(args.scripts_dir)
        while not os.path.exists(head):
            head = os.path.dirname(head)
        if not os.path.isdir(head):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), args.scripts_dir)
    _not_negative(args.max_n, "--max-n")
    _applies_only(args, "--dialect", _given(args, "--scripts-dir"), "--scripts-dir")
    diameters = None
    if args.diameter is not None:
        diameters = set(_int_list(args.diameter, "--diameter"))
        if not diameters:
            shown = _brief(args.diameter, "str")
            raise ValueError(f"--diameter takes at least one integer, got {shown}")

    def on_error(lineno: int, message: str) -> None:
        sys.stderr.write(json.dumps({"line": lineno, "error": message}) + "\n")

    with contextlib.nullcontext(sys.stdin) if args.input == "-" else open(args.input) as corpus:
        # split as str.splitlines splits the whole text, so error records
        # keep their line numbers
        lines = (line for physical in corpus for line in physical.splitlines())
        records = bms_scan(
            lines,
            diameters=diameters,
            max_n=args.max_n,
            bound=args.bound,
            script_dir=args.scripts_dir,
            dialect=args.dialect,
            jobs=args.jobs,
            on_error=on_error,
        )
        # each record is written and flushed as the scan yields it, so a pipe
        # reader gets it while the input is still open
        for record in records:
            sys.stdout.write(json.dumps(record._asdict()) + "\n")
            sys.stdout.flush()
    return 0
