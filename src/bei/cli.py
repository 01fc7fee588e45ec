"""Command-line front end.

Verbs: construct, cutsets, check, invariants, gadget, scan, export.  Graph
arguments accept inline names (K5, P3, C4), file paths, or ``-`` for stdin;
formats are sniffed from the extension and content unless ``--format`` is
given.  A JSON file with ``base``/``L``/``pendant`` keys is a corona
specification and stands for its constructed product.  Validation and bound
errors exit nonzero with a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Callable

from . import __version__
from .bms import ReductionCheck, bms_scan, verify_reduction_d2, verify_reduction_d3
from .cas import emit_cas_script
from .corona import (
    CoronaSpec,
    corona,
    corona_spec_from_json,
    gadget_d2,
    gadget_d3,
    l_corona,
)
from .cutsets import (
    EnumerationBoundError,
    accessibility_witness_chain,
    check_bound,
    check_size_cap,
    enumerate_cutsets,
    is_cutset,
    iter_cutsets,
    unmixed_report,
)
from .graph import (
    Graph,
    checked_vset,
    complete_graph,
    cone,
    is_cm_closed,
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
    is_graph_name,
    parse_edge_list,
    to_dot,
    to_graph6,
)

GRAPH_FORMATS = ("graph6", "edgelist", "json")


def _sniff_format(source: str, text: str) -> str:
    lower = source.lower()
    if lower.endswith((".g6", ".graph6")):
        return "graph6"
    if lower.endswith(".json"):
        return "json"
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return "json"
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    if " " in first.strip() or "\t" in first:
        return "edgelist"
    return "graph6"


def _graph_arg(
    token: str, fmt: str | None = None, check_n: Callable[[int], None] | None = None
) -> Graph:
    """Resolve a graph argument: inline name, file path, or '-' for stdin.
    ``check_n`` sees the vertex count a graph name, a graph6 line, a JSON
    object (a corona spec's product included) or an edge list of indices
    declares before a graph of that size is built."""
    if fmt is None and is_graph_name(token):
        return graph_from_name(token, check_n)
    if token == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        path = Path(token)
        if not path.exists():
            if is_graph_name(token):
                return graph_from_name(token, check_n)
            raise ValueError(f"no such file or graph name: {token}")
        text = path.read_text()
        source = token
    fmt = fmt or _sniff_format(source, text)
    if fmt == "graph6":
        line = next((ln for ln in text.splitlines() if ln.strip()), "")
        return from_graph6(line, check_n)
    if fmt == "edgelist":
        return parse_edge_list(text, check_n)
    if fmt == "json":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"JSON graph input must be an object, got {type(obj).__name__}")
        if {"base", "L", "pendant"} <= obj.keys():
            return l_corona(corona_spec_from_json(obj, check_n))
        return graph_from_json(obj, check_n)
    raise ValueError(f"unknown input format {fmt!r}")


def _enumerated_input(args) -> Graph:
    """``--input`` of a call that enumerates its cutsets: a declared vertex
    count above the bound is refused before the graph is built."""
    return _graph_arg(args.input, args.format, lambda n: check_bound(n, args.bound))


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


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


def _json_rows(items: list, pad: str) -> str:
    """``json.dumps(items, indent=2)`` for a list of ints or of int lists
    nested ``pad`` deep: one ``join`` of ``str`` values per row, where the
    indent encoder takes one generator step per token."""
    if not items:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(items[0], list):
        body = sep.join([_json_rows(row, inner) for row in items])
    else:
        body = sep.join(map(str, items))
    return f"[\n{inner}{body}\n{pad}]"


def _render_report(obj: dict) -> str:
    """``json.dumps(obj, indent=2) + "\n"`` for a nonempty dict whose values
    are scalars, int lists or lists of int lists (``CutsetReport.to_json``)."""
    fields = [
        f"  {json.dumps(key)}: "
        + (_json_rows(value, "  ") if isinstance(value, list) else json.dumps(value))
        for key, value in obj.items()
    ]
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _labels(g: Graph, mask: int) -> list[str]:
    return [g.label(v) for v in members(mask)]


# ---------------------------------------------------------------------------
# verbs


def _cmd_construct(args) -> int:
    if args.corona:
        base = _graph_arg(args.corona[0], args.format)
        pend = _graph_arg(args.corona[1], args.format)
        g = corona(base, pend)
    elif args.l_corona:
        base = _graph_arg(args.l_corona[0], args.format)
        pend = _graph_arg(args.l_corona[1], args.format)
        if not args.attach:
            raise ValueError("--l-corona needs --attach with base vertex indices")
        attach = checked_vset([int(tok) for tok in args.attach.split(",")], "--attach")
        g = l_corona(CoronaSpec(base, attach, pend))
    elif args.cone:
        g = cone(_graph_arg(args.cone, args.format))
    else:
        raise ValueError("choose one of --corona, --l-corona, --cone")
    _write_out(_render_graph(g, args.out), args.output)
    return 0


def _cmd_cutsets(args) -> int:
    check_size_cap(args.size_cap)
    g = _enumerated_input(args)
    if args.out == "jsonl":
        lines = []
        for mask, w in iter_cutsets(g, args.bound):
            if args.size_cap is not None and mask.bit_count() > args.size_cap:
                continue
            lines.append(
                json.dumps({"cutset": members(mask), "components": w}) + "\n"
            )
        _write_out("".join(lines), args.output)
        return 0
    report = enumerate_cutsets(g, size_cap=args.size_cap, bound=args.bound)
    _write_out(_render_report(report.to_json()), args.output)
    return 0


def _cmd_check(args) -> int:
    if args.unmixed or args.accessible or args.accessible_system:
        g = _enumerated_input(args)
    else:
        g = _graph_arg(args.input, args.format)
    result: dict
    if args.unmixed:
        report = enumerate_cutsets(g, bound=args.bound)
        result = {"check": "unmixed", "value": report.is_unmixed}
        if not report.is_unmixed:
            mask, w = report.unmixed_violation
            result["witness"] = _labels(g, mask)
            result["witness_components"] = w
            result["expected_components"] = mask.bit_count() + report.base_components
    elif args.accessible:
        report = unmixed_report(g, bound=args.bound)
        result = {"check": "accessible", "value": report is not None and report.is_accessible}
        if report is None:
            result["reason"] = "not-unmixed"
        elif not report.is_accessible_system:
            result["reason"] = "no-removable-vertex"
            result["witness"] = _labels(g, report.stuck_cutset)
    elif args.accessible_system:
        report = enumerate_cutsets(g, bound=args.bound)
        result = {"check": "accessible-system", "value": report.is_accessible_system}
        if not report.is_accessible_system:
            result["witness"] = _labels(g, report.stuck_cutset)
    elif args.cutset is not None:
        mask = checked_vset(
            [int(tok) for tok in args.cutset.split(",") if tok != ""], "--cutset"
        )
        value = is_cutset(g, mask)
        result = {"check": "cutset", "set": _labels(g, mask), "value": value}
        if value and args.chain:
            chain = accessibility_witness_chain(g, mask)
            result["witness_chain"] = None if chain is None else [g.label(v) for v in chain]
    elif args.cm_closed:
        result = {"check": "cm-closed", "value": is_cm_closed(g)}
    else:
        raise ValueError("choose a check: --unmixed, --accessible, --accessible-system, --cutset, --cm-closed")
    _write_out(json.dumps(result, indent=2) + "\n", args.output)
    return 0


def _base_record(args) -> tuple[BaseInvariants, Graph | None]:
    if args.pendant_block_graph and args.pendant_base_json:
        raise ValueError("give one of --pendant-block-graph and --pendant-base-json, not both")
    pendant_graph = block_graph = None
    if args.pendant_graph:
        pendant_graph = _graph_arg(args.pendant_graph, args.format)
    if args.pendant_block_graph:
        block_graph = _graph_arg(args.pendant_block_graph, args.format)
        base = base_invariants_block_graph(block_graph, bound=args.bound)
    elif args.pendant_base_json:
        obj = json.loads(Path(args.pendant_base_json).read_text())
        if not isinstance(obj, dict):
            raise ValueError(f"pendant record must be a JSON object, got {type(obj).__name__}")
        base = BaseInvariants.from_json(obj)
    else:
        raise ValueError("supply pendant data: --pendant-block-graph or --pendant-base-json")
    # the complete-base families take every number from the record, so
    # nothing later compares the pendant graph with it: a block graph must
    # be the pendant graph itself, a JSON record must match its size
    if pendant_graph is None:
        pendant_graph = block_graph
    elif pendant_graph.n != base.h or block_graph not in (None, pendant_graph):
        raise ValueError("pendant graph disagrees with the pendant invariants")
    return base, pendant_graph


def _cmd_invariants(args) -> int:
    base, pendant_graph = _base_record(args)
    family = args.family
    # each family names its base graph and attach set (None: every vertex)
    attach = None
    if family == "cm-closed":
        if not args.b_graph:
            raise ValueError("--family cm-closed needs --b-graph")
        graph = _graph_arg(args.b_graph, args.format)
        report = depth_reg_corona_cm_closed(graph, base, pendant_graph, args.bound)
    elif family == "l-corona":
        if args.n is None or args.ell is None:
            raise ValueError("--family l-corona needs --n and --ell")
        report = depth_reg_corona_complete(args.n, args.ell, base)
        graph, attach = complete_graph(args.n), (1 << args.ell) - 1
    elif args.n is None:
        raise ValueError(f"--family {family} needs --n")
    elif family == "full-corona":
        report = depth_reg_corona_complete(args.n, args.n, base)
        graph = complete_graph(args.n)
    else:
        report = depth_reg_corona_path(args.n, base, pendant_graph, args.bound)
        graph = path_graph(args.n)
    # the spec is validated even without --emit-cas, so a bad product is an
    # error either way; only the script needs the product itself
    spec = None
    if pendant_graph is not None:
        spec = CoronaSpec(graph, graph.full_mask if attach is None else attach, pendant_graph)

    if args.emit_cas:
        if spec is None:
            raise ValueError("--emit-cas needs a pendant graph (--pendant-block-graph or --pendant-graph)")
        expected = {"family": report.family}
        for key, value in (
            ("dim", report.dim_q),
            ("depth", report.depth_q),
            ("reg", report.reg_q),
            ("pd", report.pd),
            ("cmdef", report.cmdef),
        ):
            if value is not None:
                expected[key] = value
        for key, verdict in report.verdicts.items():
            if verdict.value is not None:
                expected[key] = verdict.value
        script = emit_cas_script(l_corona(spec), dialect=args.dialect, expected=expected)
        Path(args.emit_cas).write_text(script)

    _write_out(json.dumps(report.to_json(), indent=2) + "\n", args.output)
    return 0


def _cmd_gadget(args) -> int:
    h = _enumerated_input(args) if args.verify else _graph_arg(args.input, args.format)
    build = gadget_d2 if args.kind == "d2" else gadget_d3
    if args.verify:
        verify = verify_reduction_d2 if args.kind == "d2" else verify_reduction_d3
        check: ReductionCheck = verify(h, args.bound)
        payload = {
            "kind": args.kind,
            "gadget_vertices": build(h).n,
            "diameter_ok": check.diameter_ok,
            "accessible_transfer_ok": check.accessible_transfer_ok,
        }
        if check.distance_cases_ok is not None:
            payload["distance_cases_ok"] = check.distance_cases_ok
        _write_out(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    _write_out(_render_graph(build(h), args.out), args.output)
    return 0


def _cmd_scan(args) -> int:
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.input).read_text().splitlines()
    diameters = None
    if args.diameter:
        diameters = {int(tok) for tok in args.diameter.split(",") if tok != ""}

    def on_error(lineno: int, message: str) -> None:
        sys.stderr.write(json.dumps({"line": lineno, "error": message}) + "\n")

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
    # each record is written as the scan yields it; the first is taken
    # before an output file is opened, so a refused --jobs leaves none behind
    record = next(records, None)
    to_stdout = args.output is None or args.output == "-"
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(args.output, "w") as out:
        while record is not None:
            out.write(json.dumps(record.to_json()) + "\n")
            record = next(records, None)
    return 0


def _cmd_export(args) -> int:
    if args.out == "cas" and args.oracle_expected:
        g = _enumerated_input(args)
    else:
        g = _graph_arg(args.input, args.format)
    if args.out == "cas":
        expected = None
        if args.oracle_expected:
            report = enumerate_cutsets(g, bound=args.bound)
            expected = {
                "dim": report.oracle_dimension,
                "unmixed": report.is_unmixed,
                "accessible": report.is_accessible,
            }
        _write_out(emit_cas_script(g, dialect=args.dialect, expected=expected), args.output)
        return 0
    _write_out(_render_graph(g, args.out), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(
    p: argparse.ArgumentParser,
    input_flag: bool = True,
    format_flag: bool = True,
    bound_flag: bool = True,
) -> None:
    """The shared options; a verb that never reads one does not register it."""
    if input_flag:
        p.add_argument("--input", "-i", required=True, help="graph: name, file, or -")
    if format_flag:
        p.add_argument("--format", choices=GRAPH_FORMATS, help="force the input format")
    if bound_flag:
        p.add_argument("--bound", type=int, help="enumeration cap (default: BEI_BOUND or 24)")
    p.add_argument("--output", "-o", help="output file (default: stdout)")


def _construct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corona", nargs=2, metavar=("BASE", "PENDANT"))
    p.add_argument("--l-corona", nargs=2, metavar=("BASE", "PENDANT"))
    p.add_argument("--attach", help="comma-separated base vertices carrying copies")
    p.add_argument("--cone", metavar="GRAPH")
    p.add_argument("--out", choices=("graph6", "dot", "edgelist", "json"), default="graph6")
    _add_common(p, input_flag=False, bound_flag=False)  # construct never enumerates


def _cutsets_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size-cap", type=int)
    p.add_argument("--out", choices=("json", "jsonl"), default="json")
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
    p.add_argument("--pendant-base-json", help="user-supplied pendant invariants (JSON file)")
    p.add_argument("--pendant-graph", help="pendant graph for oracle dimension / script emission")
    p.add_argument("--emit-cas", help="also write a verification script for the product")
    p.add_argument("--dialect", choices=("m2", "singular"), default="m2")
    _add_common(p, input_flag=False)


def _gadget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=("d2", "d3"))
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", choices=("graph6", "dot", "edgelist", "json"), default="graph6")
    _add_common(p)


def _scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--diameter", help="comma-separated diameters to keep")
    p.add_argument("--max-n", type=int)
    p.add_argument("--scripts-dir", help="emit a verification script per accessible graph")
    p.add_argument("--dialect", choices=("m2", "singular"), default="m2")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="upper bound on worker processes, used only once the in-process "
        "work passes a fixed threshold (default: 1)",
    )
    _add_common(p, format_flag=False)  # a scan reads graph6 lines only


def _export_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=("graph6", "dot", "edgelist", "json", "cas"), default="graph6", required=False)
    p.add_argument("--dialect", choices=("m2", "singular"), default="m2")
    p.add_argument("--oracle-expected", action="store_true", help="with --out cas: embed oracle verdicts")
    _add_common(p)


# verb, its help line, the function adding its arguments, and its command
_VERBS = (
    ("construct", "build corona products and cones", _construct_args, _cmd_construct),
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
        return args.func(args)
    except EnumerationBoundError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "bound-exceeded"}) + "\n")
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "invalid-input"}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "io-error"}) + "\n")
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
