"""``bei scan``: the verdicts of every graph in a graph6 corpus, a JSON
line each, written as the scan finds them."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from .bms import bms_scan
from .cli import _add_common, _applies_only, _given, _int_list, _not_negative, _opened


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--diameter", help="comma-separated diameters to keep")
    p.add_argument("--max-n", type=int)
    p.add_argument("--scripts-dir", help="emit a verification script per accessible graph")
    p.add_argument(
        "--dialect", choices=("m2", "singular"), help="with --scripts-dir: script dialect (default: m2)"
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="upper bound on worker processes, used only once the in-process "
        "work passes a fixed threshold (default: 1)",
    )
    p.add_argument("--input", "-i", required=True, help="graph6 corpus, one graph a line: file, or -")
    _add_common(p, input_flag=False)


def _reads_from(corpus, path: str) -> bool:
    """Whether the open input ``corpus``, a file or stdin, is the file at
    ``path``: a scan reads as it writes, so writing there would truncate it."""
    try:
        return os.path.samestat(os.fstat(corpus.fileno()), os.stat(path))
    except (io.UnsupportedOperation, FileNotFoundError):  # no descriptor, or no such file
        return False


def run(args) -> int:
    _not_negative(args.max_n, "--max-n")
    _applies_only(args, "--dialect", _given(args, "--scripts-dir"), "--scripts-dir")
    diameters = None
    if args.diameter is not None:
        diameters = set(_int_list(args.diameter, "--diameter"))
        if not diameters:
            raise ValueError(f"--diameter takes at least one integer, got {args.diameter!r}")

    def on_error(lineno: int, message: str) -> None:
        sys.stderr.write(json.dumps({"line": lineno, "error": message}) + "\n")

    out = args.output
    with contextlib.nullcontext(sys.stdin) if args.input == "-" else open(args.input) as corpus:
        if out not in (None, "-") and _reads_from(corpus, out):
            raise ValueError("--output is the input file, which the scan reads as it writes")
        # split as str.splitlines splits the whole text, so error records
        # keep their line numbers
        lines = (line for physical in corpus for line in physical.splitlines())
        records = bms_scan(
            lines,
            diameters=diameters,
            max_n=args.max_n,
            bound=args.bound,
            script_dir=args.scripts_dir,
            dialect=args.dialect or "m2",
            jobs=args.jobs,
            on_error=on_error,
        )
        # each record is written and flushed as the scan yields it, so a pipe
        # reader gets it while the input is still open; the first is taken
        # before an output file is opened, so a refused --jobs leaves none behind
        record = next(records, None)
        with _opened(out) as f:
            while record is not None:
                f.write(json.dumps(record.to_json()) + "\n")
                f.flush()
                record = next(records, None)
    return 0
