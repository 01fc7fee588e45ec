"""Command-line front end.

Verbs: construct, cutsets, check, invariants, gadget, scan, export.
``construct --corona BASE PENDANT [--attach L]`` builds every product: the
L-corona, with L every base vertex unless given.  A cone over G is
``--corona K1 G``, its apex vertex 0.  Graph arguments accept inline names
(K5, P3, C4), file paths, or ``-`` for stdin.
A name always stands for the named graph (a file called ``K3`` is given as
``./K3``).  Any other input states its format: a ``.g6`` or ``.graph6``
suffix means graph6 and ``.json`` JSON.  With neither, text that starts
with ``{`` and holds ``"`` is JSON, a first nonblank line that is one word
of graph6 characters (after an optional ``>>graph6<<`` header) is graph6,
and anything else is an edge list.  No valid input fits two of these: a
JSON graph's keys are quoted, no graph6 character is ``"``, and an
edge-list line holds two words.  A graph6 input of more than one graph is
refused; ``bei scan`` reads a corpus.  A JSON file with
``base``/``L``/``pendant`` keys is a corona specification and stands for its
constructed product.  Validation and bound errors exit nonzero with a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from bisect import bisect_right
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import __version__
from .bms import bms_scan, verify_reduction_d2, verify_reduction_d3
from .cas import emit_cas_script
from .corona import CoronaSpec, corona_spec_from_json, gadget_d2, gadget_d3, l_corona
from .cutsets import (
    DEFAULT_BOUND,
    CutsetReport,
    EnumerationBoundError,
    accessibility_witness_chain,
    check_bound,
    enumerate_cutsets,
    is_cutset,
    unmixed_report,
)
from .graph import (
    Graph,
    checked_vset,
    complete_graph,
    is_cm_closed,
    is_connected,
    members,
    path_graph,
)
from .invariants import (
    BaseInvariants,
    base_invariants_block_graph,
    depth_reg_corona_cm_closed,
    depth_reg_corona_complete,
    depth_reg_corona_path,
)
from .io import (
    format_edge_list,
    from_graph6,
    graph_from_json,
    graph_from_name,
    graph_to_json,
    is_graph6_word,
    is_graph_name,
    parse_edge_list,
    to_dot,
    to_graph6,
)


def _graph_arg(token: str, check_n: Callable[[int], None] | None = None) -> Graph:
    """Resolve a graph argument: inline name, file path, or '-' for stdin.
    A ``.g6``/``.graph6`` suffix means graph6 and ``.json`` JSON; else text
    that starts with ``{`` and holds ``"`` is JSON, a first nonblank line
    that is one word of graph6 characters is graph6 (of one line only), and
    the rest is an edge list.  ``check_n`` sees the vertex count a graph
    name, a graph6 line, a JSON object (a corona spec's product included)
    or an edge list of indices declares before a graph of that size is
    built."""
    if is_graph_name(token):
        return graph_from_name(token, check_n)
    if token == "-":
        text, source = sys.stdin.read(), "stdin"
    else:
        path = Path(token)
        if not path.exists():
            raise ValueError(f"no such file or graph name: {token}")
        text, source = path.read_text(), token
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{source} holds no graph")
    lower = token.lower()
    g6_suffix = lower.endswith((".g6", ".graph6"))
    if lower.endswith(".json") or (not g6_suffix and text.lstrip().startswith("{") and '"' in text):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"JSON graph input must be an object, got {type(obj).__name__}")
        if {"base", "L", "pendant"} <= obj.keys():
            return l_corona(corona_spec_from_json(obj, check_n))
        return graph_from_json(obj, check_n)
    if g6_suffix or is_graph6_word(lines[0]):
        if len(lines) > 1:
            raise ValueError(
                f"{source} holds {len(lines)} graph6 lines, not one graph: a corpus is read by bei scan"
            )
        return from_graph6(lines[0], check_n)
    return parse_edge_list(text, check_n)


def _input_graph(args, searches: bool = True, where: str = "") -> Graph:
    """``--input``.  Where a cutset search runs, a declared vertex count
    above ``--bound`` is refused before the graph is built; elsewhere
    ``--bound`` itself is refused, as applying only to ``where``."""
    _applies_only(args, "--bound", searches, where)
    check_n = (lambda n: check_bound(n, args.bound)) if searches else None
    return _graph_arg(args.input, check_n)


def _opened(out: str | None):
    """stdout, or the file ``out`` opened for writing."""
    return contextlib.nullcontext(sys.stdout) if out in (None, "-") else open(out, "w")


def _write_out(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, or its pieces a thousand to a ``write``, to
    ``_opened(out)``: a long listing is never held whole, nor written a row
    per syscall when unbuffered."""
    pieces = iter([text] if isinstance(text, str) else text)
    with _opened(out) as f:
        for chunk in iter(lambda: "".join(islice(pieces, 1000)), ""):
            f.write(chunk)


def _render_graph(g: Graph, fmt: str) -> str:
    if fmt == "graph6":
        return to_graph6(g) + "\n"
    if fmt == "dot":
        return to_dot(g)
    if fmt == "edgelist":
        return format_edge_list(g)
    if fmt == "json":
        return json.dumps(graph_to_json(g), indent=2) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


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


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of the comma-separated list given to ``flag``; empty
    tokens are skipped, so ``""`` is the empty list."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _labels(g: Graph, mask: int) -> list[str]:
    return [g.label(v) for v in members(mask)]


def _given(args, flag: str) -> bool:
    value = getattr(args, flag[2:].replace("-", "_"))
    return value is not None and value is not False


def _one_of(args, *flags: str) -> str:
    """The one option of ``flags`` that was given; none or several is a
    ValueError, so that no mode is silently dropped."""
    given = [f for f in flags if _given(args, f)]
    if len(given) == 1:
        return given[0]
    if given:
        listing = ", ".join(given[:-1]) + " and " + given[-1]
        raise ValueError(f"give one of {listing}, not {'both' if len(given) == 2 else 'all'}")
    raise ValueError(f"choose one of {', '.join(flags)}")


def _applies_only(args, flag: str, applies: bool, where: str) -> None:
    """Refuse ``flag`` where it does not apply, so that no option the chosen
    mode never reads is silently dropped."""
    if not applies and _given(args, flag):
        raise ValueError(f"{flag} applies only to {where}")


def _not_negative(value: int | None, name: str) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{name} must be at least 0, got {value}")


# ---------------------------------------------------------------------------
# verbs


def _cmd_construct(args) -> int:
    base, pend = map(_graph_arg, args.corona)
    attach = base.full_mask
    if args.attach is not None:
        attach = checked_vset(_int_list(args.attach, "--attach"), "--attach", base.n)
    _write_out(_render_graph(l_corona(CoronaSpec(base, attach, pend)), args.out), args.output)
    return 0


def _cmd_cutsets(args) -> int:
    cap = args.size_cap
    _not_negative(cap, "--size-cap")
    report = enumerate_cutsets(_input_graph(args), bound=args.bound)
    if args.out == "jsonl":
        listed = _listed(report, cap)
        rows = zip(report.cutsets[:listed], report.per_cutset_components[:listed])
        lines = (json.dumps({"cutset": members(mask), "components": w}) + "\n" for mask, w in rows)
        _write_out(lines, args.output)
        return 0
    _write_out(_report_pieces(report, cap), args.output)
    return 0


def _cmd_check(args) -> int:
    mode = _one_of(args, "--unmixed", "--accessible", "--accessible-system", "--cutset", "--cm-closed")
    _applies_only(args, "--chain", mode == "--cutset", "--cutset")
    searches = mode in ("--unmixed", "--accessible", "--accessible-system")
    g = _input_graph(args, searches, "--unmixed, --accessible and --accessible-system")
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
            chain = accessibility_witness_chain(g, mask)
            result["witness_chain"] = None if chain is None else [g.label(v) for v in chain]
    else:
        result = {"check": "cm-closed", "value": is_cm_closed(g)}
    _write_out(json.dumps(result, indent=2) + "\n", args.output)
    return 0


def _base_record(args) -> tuple[BaseInvariants, Graph | None]:
    """The pendant record and the pendant graph, if any, checked against
    each other: a block graph must be the pendant graph itself, a JSON
    record must match its size, and the pendant graph must be connected."""
    source = _one_of(args, "--pendant-block-graph", "--pendant-base-json")
    pendant_graph = block_graph = None
    if args.pendant_graph:
        pendant_graph = _graph_arg(args.pendant_graph)
    if source == "--pendant-block-graph":
        block_graph = _graph_arg(args.pendant_block_graph)
        base = base_invariants_block_graph(block_graph, bound=args.bound)
    else:
        obj = json.loads(Path(args.pendant_base_json).read_text())
        if not isinstance(obj, dict):
            raise ValueError(f"pendant record must be a JSON object, got {type(obj).__name__}")
        base = BaseInvariants.from_json(obj)
    if pendant_graph is None:
        return base, block_graph
    if pendant_graph.n != base.h or block_graph not in (None, pendant_graph):
        raise ValueError("pendant graph disagrees with the pendant invariants")
    if not is_connected(pendant_graph):
        raise ValueError("pendant graph must be connected")
    return base, pendant_graph


def _cmd_invariants(args) -> int:
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

    if args.emit_cas:
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
        script = emit_cas_script(product, dialect=args.dialect or "m2", expected=expected)
        Path(args.emit_cas).write_text(script)

    _write_out(json.dumps(values, indent=2) + "\n", args.output)
    return 0


def _cmd_gadget(args) -> int:
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


def _reads_from(corpus, path: str) -> bool:
    """Whether the open input ``corpus``, a file or stdin, is the file at
    ``path``: a scan reads as it writes, so writing there would truncate it."""
    try:
        return os.path.samestat(os.fstat(corpus.fileno()), os.stat(path))
    except (io.UnsupportedOperation, FileNotFoundError):  # no descriptor, or no such file
        return False


def _cmd_scan(args) -> int:
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


def _cmd_export(args) -> int:
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


# ---------------------------------------------------------------------------
# parser


def _add_common(
    p: argparse.ArgumentParser,
    input_flag: bool = True,
    bound_flag: bool = True,
) -> None:
    """The shared options; a verb that never reads one does not register it."""
    if input_flag:
        p.add_argument(
            "--input",
            "-i",
            required=True,
            help='graph: name, file, or -; JSON if .json or {..."...}, one graph6 line if .g6, '
            ".graph6 or a graph6 word, else an edge list",
        )
    if bound_flag:
        p.add_argument(
            "--bound",
            type=int,
            help=f"most vertices a cutset search takes (default: {DEFAULT_BOUND})",
        )
    p.add_argument("--output", "-o", help="output file (default: stdout)")


def _construct_args(p: argparse.ArgumentParser) -> None:
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
    p.add_argument("--out", choices=("graph6", "dot", "edgelist", "json"), default="graph6")
    _add_common(p, input_flag=False, bound_flag=False)  # construct never enumerates


def _cutsets_args(p: argparse.ArgumentParser) -> None:
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


def _check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--unmixed", action="store_true")
    p.add_argument("--accessible", action="store_true")
    p.add_argument("--accessible-system", action="store_true")
    p.add_argument("--cutset", help="comma-separated vertices to test")
    p.add_argument("--chain", action="store_true", help="with --cutset: also search a removal chain")
    p.add_argument("--cm-closed", action="store_true")
    _add_common(p)


def _invariants_args(p: argparse.ArgumentParser) -> None:
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
    p.add_argument("--dialect", choices=("m2", "singular"), help="with --emit-cas: script dialect (default: m2)")
    _add_common(p, input_flag=False)


def _gadget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=("d2", "d3"))
    p.add_argument("--verify", action="store_true")
    p.add_argument(
        "--out",
        choices=("graph6", "dot", "edgelist", "json"),
        help="without --verify: output format (default: graph6)",
    )
    _add_common(p)


def _scan_args(p: argparse.ArgumentParser) -> None:
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


def _export_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=("graph6", "dot", "edgelist", "json", "cas"), default="graph6", required=False)
    p.add_argument("--dialect", choices=("m2", "singular"), help="with --out cas: script dialect (default: m2)")
    p.add_argument("--oracle-expected", action="store_true", help="with --out cas: embed oracle verdicts")
    _add_common(p)


# verb, its help line, the function adding its arguments, and its command
_VERBS = (
    ("construct", "build corona products (a cone over G is --corona K1 G)", _construct_args, _cmd_construct),
    ("cutsets", "enumerate all cutsets with verdicts", _cutsets_args, _cmd_cutsets),
    ("check", "combinatorial verdicts for one graph", _check_args, _cmd_check),
    ("invariants", "closed-form invariant reports", _invariants_args, _cmd_invariants),
    ("gadget", "diameter-2/3 wrappers and their verification", _gadget_args, _cmd_gadget),
    ("scan", "classify a graph6 corpus (JSON lines out)", _scan_args, _cmd_scan),
    ("export", "convert a graph between formats", _export_args, _cmd_export),
)


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The ``bei`` parser with every verb registered; only ``verb``'s
    subparser, or every one when ``verb`` is None, gets its arguments."""
    parser = argparse.ArgumentParser(
        prog="bei",
        description="Cutset combinatorics and invariant formulas for binomial edge ideals of corona-type products.",
    )
    parser.add_argument("--version", action="version", version=f"bei {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, help_line, add_arguments, command in _VERBS:
        p = sub.add_parser(name, help=help_line)
        if verb is None or verb == name:
            add_arguments(p)
        p.set_defaults(func=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level options take no value, so the first other word names the verb
    verb = next((word for word in argv if not word.startswith("-")), None)
    args = build_parser(verb).parse_args(argv)
    try:
        _not_negative(getattr(args, "bound", None), "--bound")
        return args.func(args)
    except EnumerationBoundError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "bound-exceeded"}) + "\n")
        return 1
    except (ValueError, KeyError, OverflowError, json.JSONDecodeError) as exc:
        # OverflowError: a number too large to index or shift by, such as
        # the vertex count of {"n": 99999999999999999999}
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "invalid-input"}) + "\n")
        return 1
    except MemoryError as exc:
        # a graph too large to hold, such as {"n": 200000000} under a 1 GiB
        # address-space limit, or a listing too long for the memory left;
        # MemoryError usually carries no message
        error = f"out of memory: {str(exc) or 'the graph or its results do not fit'}"
        sys.stderr.write(json.dumps({"error": error, "kind": "invalid-input"}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "io-error"}) + "\n")
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
