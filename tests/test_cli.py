"""Command-line front end: bad input ends in a JSON error and exit code 1,
the verdict witnesses come from one enumeration, and the recorded calls
under ``tests/golden`` keep their exact stdout, stderr and exit code.

Each golden file holds one call's ``argv`` (its input files under
``inputs/``, which is ``tests/golden/inputs``) and what it printed.  After
a deliberate output change, ``PYTHONPATH=src python tests/test_cli.py``
rewrites every golden file from the current CLI.
"""

import contextlib
import importlib
import io
import itertools
import json
import os
import select
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import bei
from bei import (
    complete_graph,
    cycle_graph,
    enumerate_cutsets,
    format_edge_list,
    graph_to_json,
    members,
    path_graph,
    to_graph6,
)
from bei._verb_cutsets import _report_pieces
from bei.cli import build_parser, main

from conftest import (
    atlas,
    cone_over,
    connected_atlas,
    factors_pendants,
    full_corona,
    python_env,
    run_python,
    to_nx,
)

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def assert_invalid_input(code, err):
    assert code == 1
    assert json.loads(err)["kind"] == "invalid-input"


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        "3",
        '"K4"',
        "null",
        # objects with malformed fields
        '{"n": 3, "edges": [1, 2]}',
        '{"n": 3, "labels": 7}',
        '{"base": 1, "L": [0], "pendant": "Bw"}',
        '{"base": "Bw", "L": 5, "pendant": "Bw"}',
    ],
)
def test_non_object_json_input_is_invalid(tmp_path, capsys, text):
    path = tmp_path / "x.json"
    path.write_text(text)
    code, out, err = run(["cutsets", "--input", str(path)], capsys)
    assert out == ""
    assert_invalid_input(code, err)
    if not text.startswith("{"):
        assert json.loads(err)["error"].startswith("JSON graph must be a JSON object, got ")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_scan_rejects_jobs_below_one(tmp_path, capsys, jobs):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nCr\n")
    code, out, err = run(["scan", "--input", str(corpus), "--jobs", jobs], capsys)
    assert out == ""
    assert_invalid_input(code, err)


# the input states its format, so no verb takes --format
FORMAT_CALLS = {
    "construct": ["construct", "--corona", "K1", "-", "--format", "graph6"],
    "cutsets": ["cutsets", "--input", "-", "--format", "graph6"],
    "check": ["check", "--cm-closed", "--input", "-", "--format", "edgelist"],
    "invariants": ["invariants", "--family", "cm-closed", "--b-graph", "-",
                   "--pendant-block-graph", "P3", "--format", "graph6"],
    "gadget": ["gadget", "--kind", "d2", "--input", "-", "--format", "json"],
    "scan": ["scan", "--input", "corpus.g6", "--format", "json"],
    "export": ["export", "--input", "-", "--format", "graph6"],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--corona", "K2", "K1", "--bound", "1"],  # construct never enumerates
        # one product form: a cone is --corona K1 G, an L-corona takes --attach
        ["construct", "--cone", "K3"],
        ["construct", "--l-corona", "K3", "P3", "--attach", "0"],
        ["construct"],
        *FORMAT_CALLS.values(),
    ],
    ids=["construct-bound", "construct-cone", "construct-l-corona", "construct-no-product",
         *(f"{verb}-format" for verb in FORMAT_CALLS)],
)
def test_options_a_verb_never_reads_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def parser_exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


VERB_NAMES = ("construct", "cutsets", "check", "invariants", "gadget", "scan", "export")


@pytest.mark.parametrize(
    "argv",
    [
        *([verb, "--help"] for verb in VERB_NAMES),
        ["--help"],
        ["--version"],
        ["frobnicate", "-i", "K3"],
        [],
        ["cutsets"],
        ["cutsets", "-i", "K3", "--size-cap"],
    ],
    ids=lambda argv: " ".join(argv) or "no-args",
)
def test_a_call_parses_as_with_every_verb_built(capsys, argv):
    # main builds only the called verb's arguments
    full = parser_exit(build_parser().parse_args, argv, capsys)
    assert parser_exit(main, argv, capsys) == full


INVARIANTS_BOUND = "--bound applies only to --pendant-block-graph"
CHECK_BOUND = "--bound applies only to --unmixed, --accessible, --accessible-system and --chain"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["check", "--unmixed", "--accessible", "-i", "P4"],
         "give one of --unmixed and --accessible, not both"),
        (["check", "--unmixed", "--cutset", "1", "--cm-closed", "-i", "P4"],
         "give one of --unmixed, --cutset and --cm-closed, not all"),
        (["check", "--cm-closed", "--chain", "-i", "P4"], "--chain applies only to --cutset"),
        (["check", "-i", "P4"],
         "choose one of --unmixed, --accessible, --accessible-system, --cutset, --cm-closed"),
        (["invariants", "--family", "path", "--n", "2"],
         "choose one of --pendant-block-graph, --pendant-base-json"),
        (["invariants", "--family", "path", "--n", "2", "--ell", "0", "--pendant-block-graph", "P3"],
         "--ell applies only to --family l-corona"),
        (["invariants", "--family", "l-corona", "--n", "3", "--ell", "1", "--b-graph", "P3",
          "--pendant-block-graph", "P3"],
         "--b-graph applies only to --family cm-closed"),
        (["invariants", "--family", "cm-closed", "--b-graph", "P3", "--n", "0",
          "--pendant-block-graph", "P3"],
         "--n applies only to --family full-corona, l-corona and path"),
        (["export", "-i", "P3", "--out", "json", "--oracle-expected"],
         "--oracle-expected applies only to --out cas"),
        # --bound where no cutset search runs
        (["check", "--cutset", "1", "-i", "P4", "--bound", "3"], CHECK_BOUND),
        (["check", "--cm-closed", "-i", "P4", "--bound", "3"], CHECK_BOUND),
        (["gadget", "--kind", "d2", "-i", "P4", "--bound", "3"], "--bound applies only to --verify"),
        (["export", "-i", "P3", "--out", "cas", "--bound", "3"],
         "--bound applies only to --oracle-expected"),
        (["invariants", "--family", "full-corona", "--n", "2", "--pendant-base-json", "p3.json",
          "--pendant-graph", "P3", "--bound", "3"], INVARIANTS_BOUND),
        (["invariants", "--family", "path", "--n", "2", "--pendant-base-json", "p3.json",
          "--bound", "3"], INVARIANTS_BOUND),
        # a pendant graph feeds no cutset search: every dimension is a formula
        (["invariants", "--family", "cm-closed", "--b-graph", "K3", "--pendant-base-json",
          "p3.json", "--pendant-graph", "P3", "--bound", "1"], INVARIANTS_BOUND),
        (["invariants", "--family", "path", "--n", "2", "--pendant-base-json", "p3.json",
          "--pendant-graph", "P3", "--bound", "1"], INVARIANTS_BOUND),
        (["cutsets", "-i", "P4", "--bound", "-1"], "--bound must be at least 0, got -1"),
        # --dialect where no script is written, --out where no graph is printed
        (["scan", "-i", "corpus.g6", "--dialect", "singular"],
         "--dialect applies only to --scripts-dir"),
        (["invariants", "--family", "path", "--n", "2", "--pendant-block-graph", "P3",
          "--dialect", "m2"],
         "--dialect applies only to --emit-cas"),
        (["export", "-i", "P4", "--dialect", "singular"], "--dialect applies only to --out cas"),
        (["gadget", "--kind", "d2", "-i", "P4", "--verify", "--out", "dot"],
         "--out applies only to a gadget built without --verify"),
        (["scan", "-i", "corpus.g6", "--max-n", "-3"], "--max-n must be at least 0, got -3"),
    ],
    ids=["check-two-modes", "check-three-modes", "check-chain", "check-no-mode",
         "invariants-no-pendant",
         "invariants-ell", "invariants-b-graph", "invariants-n", "export-oracle-expected",
         "check-cutset-bound", "check-cm-closed-bound", "gadget-bound", "export-bound",
         "invariants-full-corona-bound", "invariants-path-bound",
         "invariants-cm-closed-complete-base-bound", "invariants-path-n2-bound", "negative-bound",
         "scan-dialect", "invariants-dialect", "export-dialect", "gadget-verify-out",
         "scan-negative-max-n"],
)
def test_a_mode_or_modifier_that_would_be_ignored_is_refused(capsys, argv, error):
    code, out, err = run(argv, capsys)
    assert out == ""
    assert_invalid_input(code, err)
    assert json.loads(err)["error"] == error


def test_a_chain_search_is_bounded_by_its_set_not_by_n(capsys):
    # C_30 is over the default bound; {0, 2} is a cutset with no chain
    code, out, _ = run(["check", "--cutset", "0,2", "--chain", "-i", "C30", "--bound", "2"], capsys)
    assert code == 0 and json.loads(out)["witness_chain"] is None


@pytest.mark.parametrize("graph", ["K3000", "C30"])
def test_an_over_bound_pendant_block_graph_is_refused_before_it_is_built(capsys, monkeypatch, graph):
    # as an --input graph is, and before C_30 is found not to be a block graph
    def not_built(n):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(bei.io, "complete_graph", not_built)
    monkeypatch.setattr(bei.io, "cycle_graph", not_built)
    code, out, err = run(["invariants", "--family", "path", "--n", "2", "--pendant-block-graph", graph], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": f"{graph[1:]} vertices exceeds the enumeration bound 24",
        "kind": "bound-exceeded",
    }


def test_gadget_verify_builds_the_wrapper_once(capsys, monkeypatch):
    bms_module = importlib.import_module("bei.bms")
    real = bms_module.l_corona
    calls = []

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(bms_module, "l_corona", counting)
    for kind, size in (("d2", 6), ("d3", 11)):
        calls.clear()
        code, out, _ = run(["gadget", "--kind", kind, "--verify", "-i", "P4"], capsys)
        assert code == 0 and json.loads(out)["gadget_vertices"] == size
        assert len(calls) == 1


@pytest.mark.parametrize("kind", ["d2", "d3"])
def test_gadget_verify_refuses_a_disconnected_pendant(capsys, monkeypatch, kind):
    c10 = cycle_graph(10).edges()
    two_c10 = format_edge_list(bei.Graph(20, [*c10, *((u + 10, v + 10) for u, v in c10)]))
    monkeypatch.setattr(sys, "stdin", io.StringIO(two_c10))
    code, out, err = run(["gadget", "--kind", kind, "--verify", "-i", "-"], capsys)
    assert out == ""
    assert_invalid_input(code, err)
    assert json.loads(err)["error"] == "pendant graph must be connected"


def test_construct_refuses_a_product_label_that_repeats_a_base_label(tmp_path, capsys):
    # the copy of K1 at base vertex "a" is labelled "0@a", a base label
    base = tmp_path / "base.txt"
    base.write_text("0@a a\n")
    code, out, err = run(["construct", "--corona", str(base), "K1", "--out", "edgelist"], capsys)
    assert out == ""
    assert_invalid_input(code, err)
    assert json.loads(err)["error"] == "vertex label '0@a' is repeated"


def test_construct_rejects_repeated_attach_vertex(capsys):
    argv = ["construct", "--corona", "K3", "P3", "--attach", "0,0"]
    code, out, err = run(argv, capsys)
    assert out == ""
    assert_invalid_input(code, err)
    code, out, _ = run(["construct", "--corona", "K3", "P3", "--attach", "0,2"], capsys)
    assert code == 0 and out.strip()


@pytest.mark.parametrize("base", ["K3", "C4", "P4"])
def test_construct_attaches_at_every_base_vertex_by_default(capsys, base):
    every = ",".join(map(str, range(bei.graph_from_name(base).n)))
    plain = run(["construct", "--corona", base, "P3"], capsys)
    assert plain[0] == 0 and plain[1].strip()
    assert run(["construct", "--corona", base, "P3", "--attach", every], capsys) == plain


def test_a_cone_is_the_corona_over_k1(capsys, monkeypatch):
    nx = pytest.importorskip("networkx")
    for g in connected_atlas(5):
        monkeypatch.setattr(sys, "stdin", io.StringIO(to_graph6(g) + "\n"))
        code, out, _ = run(["construct", "--corona", "K1", "-"], capsys)
        assert code == 0
        assert nx.is_isomorphic(to_nx(bei.from_graph6(out.strip())), to_nx(cone_over(g))), out


@pytest.mark.parametrize("h", ["K1", "P3", "C5"])
def test_the_d3_gadget_is_the_corona_over_k3_at_two_vertices(capsys, h):
    # the paper's diameter-3 wrapper, byte for byte
    gadget = run(["gadget", "--kind", "d3", "-i", h], capsys)
    assert gadget[0] == 0
    assert run(["construct", "--corona", "K3", h, "--attach", "0,1"], capsys) == gadget


@pytest.mark.parametrize("h", ["K1", "P3", "C5"])
def test_the_d2_gadget_is_the_corona_over_k2_at_one_vertex(capsys, h):
    # the cone over H + K1, byte for byte: apex 0, companion 1, H at 2..h+1
    gadget = run(["gadget", "--kind", "d2", "-i", h], capsys)
    assert gadget[0] == 0
    assert run(["construct", "--corona", "K2", h, "--attach", "0"], capsys) == gadget


HUGE = "99999999999999999999"  # above any C long: shifting 1 by it overflows


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--cutset", HUGE, "-i", "P3"],
        ["check", "--cutset", "5000000000", "-i", "P3"],  # 1 << 5000000000 takes 625 MB
        ["construct", "--corona", "K3", "P2", "--attach", HUGE],
        ["construct", "--corona", "K1", "-"],  # the corona spec on stdin
    ],
)
def test_a_vertex_index_out_of_range_is_refused_before_it_is_shifted(capsys, monkeypatch, argv):
    spec = {"base": "Bw", "L": [int(HUGE)], "pendant": "@"}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(argv, capsys)
    assert out == ""
    assert_invalid_input(code, err)
    assert "out of range for 3 vertices" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, stdin, count",
    [
        (["export", "-i", "-"], f"0 {HUGE}\n", int(HUGE) + 1),
        (["export", "-i", "-"], f'{{"n": {HUGE}}}', int(HUGE)),
        (["construct", "--corona", f"K{HUGE}", "P2"], "", int(HUGE)),
        (["construct", "--corona", f"P{HUGE}", "P2"], "", int(HUGE)),
        (["construct", "--corona", "K1", f"C{HUGE}"], "", int(HUGE)),
        # where a cutset search runs too: no bound admits such a count
        (["cutsets", "-i", "-"], f"0 {HUGE}\n", int(HUGE) + 1),
        (["cutsets", "-i", "-"], f'{{"n": {HUGE}}}', int(HUGE)),
        (["cutsets", "-i", f"K{HUGE}"], "", int(HUGE)),
    ],
    ids=["edge-list", "json-object", "name", "path-name", "cycle-name", "edge-list-bound", "json-bound", "name-bound"],
)
def test_a_vertex_count_too_large_to_index_is_invalid_input(capsys, monkeypatch, argv, stdin, count):
    # refused before a list or an edge list of that length is started
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(argv, capsys)
    assert out == ""
    assert_invalid_input(code, err)
    assert json.loads(err)["error"] == f"vertex count {count} is too large for a graph"


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["export", "-i", "-"], f"0 {'9' * 4000}\n"),
        (["export", "-i", "-"], f"0 {'9' * 5000}\n"),
        (["export", "-i", "K" + "1" * 5000], ""),
        (["export", "-i", "-"], json.dumps({"n": 2, "edges": [[0, 10**4000]]})),
        (["export", "-i", "-"], json.dumps({"n": 2, "labels": ["x" * 5000] * 2})),
        (["export", "-i", "-"], f"{'t' * 5000} {'t' * 5000}\n"),
        (["check", "--cutset", "-" + "9" * 4000, "-i", "P3"], ""),
        (["check", "--cutset", "x" * 5000, "-i", "P3"], ""),
        (["cutsets", "-i", "P3", "--bound", "-" + "9" * 4000], ""),
        (["scan", "-i", "-", "--max-n", "-" + "9" * 4000], "Bw\n"),
        (["scan", "-i", "-", "--diameter", "," * 5000], "Bw\n"),
        (["invariants", "--family", "path", "--n", "2", "--pendant-base-json", "pd.json"], ""),
        # a file name too long for the file system, in an io-error
        (["invariants", "--family", "path", "--n", "2", "--pendant-block-graph", "P3",
          "--emit-cas", "x" * 3000], ""),
        (["scan", "-i", "x" * 3000], ""),
        (["invariants", "--family", "path", "--n", "2", "--pendant-base-json", "x" * 3000], ""),
    ],
    ids=[
        "edge-list-4000", "edge-list-5000", "name-5000", "json-edge", "json-label", "self-loop",
        "cutset", "cutset-text", "bound", "max-n", "diameter", "pendant-pd",
        "io-output", "io-scan-input", "io-pendant-base-json",
    ],
)
def test_a_refusal_of_long_input_stays_short(tmp_path, capsys, monkeypatch, argv, stdin):
    record = json.loads((GOLDEN / "inputs" / "p3_base.json").read_text())
    (tmp_path / "pd.json").write_text(json.dumps({**record, "pd": 10**4000}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(argv, capsys)
    assert out == "" and code == 1
    assert len(err.encode()) < 200 and "characters>" in json.loads(err)["error"]


def test_a_graph_name_is_the_named_graph(tmp_path, capsys, monkeypatch):
    # before and after a file named K3 exists; it is read through a path
    # that is not a name
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        code, out, _ = run(["export", "-i", "K3"], capsys)
        assert code == 0 and out == "Bw\n"
        (tmp_path / "K3").write_text("0 1\n1 2\n")
    code, out, _ = run(["export", "-i", "./K3"], capsys)
    assert code == 0 and out == to_graph6(path_graph(3)) + "\n"


# K3oP2, and P60, whose graph6 starts with "{" (63 + 60) but is not JSON
FORMAT_GRAPHS = [full_corona(complete_graph(3), path_graph(2)), path_graph(60)]


def format_texts(g):
    """(format, suffixes that name it, text) for each input format of ``g``."""
    g6 = to_graph6(g)
    return [
        ("graph6", (".g6", ".graph6"), g6 + "\n"),
        ("graph6-header", (".g6",), f"\n>>graph6<<{g6}\n\n"),
        ("json", (".json",), json.dumps(graph_to_json(g))),
        ("json-indented", (".json",), json.dumps(graph_to_json(g), indent=2)),
        ("edgelist", (".txt",), "# a comment\n" + format_edge_list(g)),
    ]


@pytest.mark.parametrize("g", FORMAT_GRAPHS, ids=["k3op2", "p60"])
def test_a_graph_input_states_its_format(tmp_path, capsys, monkeypatch, g):
    # with its suffix, without one, and on stdin
    expected = to_graph6(g) + "\n"
    for name, suffixes, text in format_texts(g):
        for suffix in (*suffixes, ""):
            path = tmp_path / f"graph{suffix}"
            path.write_text(text)
            assert run(["export", "-i", str(path)], capsys) == (0, expected, ""), (name, suffix)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(["export", "-i", "-"], capsys) == (0, expected, ""), name


@pytest.mark.parametrize("verb", ["cutsets", "export"])
@pytest.mark.parametrize("source", ["two.g6", "two", "-"])
def test_a_graph6_input_of_several_graphs_is_refused(tmp_path, capsys, monkeypatch, verb, source):
    text = "Bw\n\nCF\n"
    if source == "-":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    else:
        source = str(tmp_path / source)
        Path(source).write_text(text)
    code, out, err = run([verb, "-i", source], capsys)
    assert out == ""
    assert_invalid_input(code, err)
    message = json.loads(err)["error"]
    assert "2 graph6 lines" in message and "bei scan" in message


@pytest.mark.parametrize(
    "option, message",
    [
        (["--pendant-base-json", ""], "--pendant-base-json needs a file name, got ''"),
        (["--pendant-block-graph", "P3", "--emit-cas", ""], "--emit-cas needs a file name, got ''"),
        (["--pendant-block-graph", "P3", "--pendant-graph", ""], "no such file or graph name: ''"),
    ],
    ids=["pendant-base-json", "emit-cas", "pendant-graph"],
)
def test_an_empty_path_option_is_refused(tmp_path, capsys, monkeypatch, option, message):
    # Path("") is ".", which names no file: an empty value is neither read
    # as the current directory nor dropped as not given
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["invariants", "--family", "path", "--n", "2", *option], capsys)
    assert out == ""
    assert_invalid_input(code, err)
    assert json.loads(err)["error"] == message
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["empty.g6", "empty.graph6", "empty.json", "empty", "-"])
@pytest.mark.parametrize("text", ["", " \n\n\t\n"], ids=["empty", "blank"])
def test_an_input_with_no_graph_is_refused(tmp_path, capsys, monkeypatch, source, text):
    if source == "-":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    else:
        source = str(tmp_path / source)
        Path(source).write_text(text)
    code, out, err = run(["export", "-i", source], capsys)
    assert out == ""
    assert_invalid_input(code, err)
    assert json.loads(err)["error"].endswith("holds no graph")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "-i", "P3", "--cutset"], "--cutset"),
        (["scan", "-i", "-", "--diameter"], "--diameter"),
        (["construct", "--corona", "K3", "P2", "--attach"], "--attach"),
    ],
    ids=["cutset", "diameter", "attach"],
)
def test_comma_lists_skip_empty_tokens_and_name_their_option(capsys, monkeypatch, argv, flag):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\n"))
    code, expected, _ = run([*argv, "1"], capsys)
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\n"))
    assert run([*argv, "1,"], capsys) == (0, expected, "")
    code, out, err = run([*argv, "1,x"], capsys)
    assert out == ""
    assert_invalid_input(code, err)
    assert json.loads(err)["error"] == f"{flag} takes comma-separated integers, got '1,x'"


def test_export_dot_escapes_a_quote_in_a_label(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text('a"b c\n')
    code, out, _ = run(["export", "-i", str(path), "--out", "dot"], capsys)
    assert code == 0
    assert out == 'graph G {\n  0 [label="a\\"b"];\n  1 [label="c"];\n  0 -- 1;\n}\n'


def test_check_accessible_reports_the_stuck_cutset(tmp_path, capsys):
    # unmixed, but neither {3} nor {4} is a cutset although {3, 4} is
    path = tmp_path / "stuck.g6"
    path.write_text("FFwc?\n")
    code, out, _ = run(["check", "--accessible", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {
        "check": "accessible",
        "value": False,
        "reason": "no-removable-vertex",
        "witness": ["3", "4"],
    }
    code, out, _ = run(["check", "--accessible-system", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["witness"] == ["3", "4"]


# P_1500 runs deeper than the recursion limit of a depth-first search
def test_check_cm_closed_decides_a_long_path(capsys):
    code, out, _ = run(["check", "--cm-closed", "-i", "P1500"], capsys)
    assert code == 0
    assert json.loads(out) == {"check": "cm-closed", "value": True}


def test_invariants_take_a_long_clique_path_base(capsys):
    argv = ["invariants", "--family", "cm-closed", "--b-graph", "P1500", "--pendant-block-graph", "P3"]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["b"] == 1500 and report["product_vertices"] == 6000
    # 1500 * dim P_3 + alpha(P_1500)
    assert report["dim"]["value"] == 1500 * 4 + 750


def test_invariants_take_the_oracle_dimension_over_a_pendant_graph(capsys):
    argv = ["invariants", "--family", "cm-closed", "--b-graph", "P3",
            "--pendant-block-graph", "P3", "--pendant-graph", "P3"]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    dim = json.loads(out)["dim"]
    product = full_corona(path_graph(3), path_graph(3))
    assert dim == {"value": bei.dimension_oracle(product), "provenance": "formula:l-corona-dimension"}


def script_header(text):
    """The graph6 and the expected values in a script's comment lines."""
    graph6, expected = None, {}
    for line in text.splitlines():
        body = line.removeprefix("-- ").removeprefix("// ")
        if body.startswith("graph6: "):
            graph6 = body.removeprefix("graph6: ")
        elif body.startswith("expected "):
            key, value = body.removeprefix("expected ").split(" = ")
            expected[key] = value
    return graph6, expected


@pytest.mark.parametrize(
    "family, dialect, product",
    [
        (["l-corona", "--n", "4", "--ell", "2", "--pendant-block-graph", "P3"], None,
         bei.l_corona(bei.CoronaSpec(complete_graph(4), 0b11, path_graph(3)))),
        (["path", "--n", "3", "--pendant-block-graph", "K3", "--pendant-graph", "K3"], "singular",
         full_corona(path_graph(3), complete_graph(3))),
    ],
    ids=["l-corona-m2", "path-singular"],
)
def test_invariants_emit_a_script_for_the_product(tmp_path, capsys, family, dialect, product):
    script = tmp_path / "product.script"
    argv = ["invariants", "--family", *family, "--emit-cas", str(script)]
    if dialect is not None:
        argv += ["--dialect", dialect]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    values = {
        "family": report["family"],
        **{key: report[key]["value"] for key in ("dim", "depth", "reg", "pd", "cmdef")},
        **{key: entry["value"] for key, entry in report["verdicts"].items()},
    }
    # the script's values are the report's non-null ones, booleans in JSON
    shown = {
        key: json.dumps(value) if isinstance(value, bool) else str(value)
        for key, value in values.items()
        if value is not None
    }
    text = script.read_text()
    assert text.startswith("//" if dialect == "singular" else "--")
    graph6, expected = script_header(text)
    assert bei.from_graph6(graph6) == product
    assert expected == shown


# the corona-cutsets benchmark products: work-bound, then output-dense
BENCH_PRODUCTS = [
    ("K4", "C4"), ("K3", "C5"), ("K2", "C8"), ("C12", "K1"), ("P12", "K1"), ("C8", "K2")
]


def report_json(report, cap=None):
    """The ``bei cutsets`` report as a dict in print order, built here from
    the report's stored family and derived properties."""
    listed = [i for i, m in enumerate(report.cutsets) if cap is None or m.bit_count() <= cap]
    return {
        "n": report.n,
        "connected": report.connected,
        "cutsets": [members(report.cutsets[i]) for i in listed],
        "per_cutset_components": [report.per_cutset_components[i] for i in listed],
        "is_unmixed": report.is_unmixed,
        "is_accessible_system": report.is_accessible_system,
        "oracle_dimension": report.oracle_dimension,
        "size_cap": cap,
        "unmixedness_definition": "standard" if report.connected else "disconnected-extension",
    }


def test_cutsets_json_is_the_indented_report(tmp_path, capsys, monkeypatch):
    # the report writer against json's indent encoder, with no size cap,
    # cap 0 and cap 2: through the CLI on the benchmark's corona products
    # (P12oK1 lists 1,201 rows, which the CLI writes in several chunks), and
    # on every atlas graph on at most 6 vertices (n = 0 and disconnected
    # graphs included), where a CLI call per graph would cost seconds, and
    # on C16 (2,191 rows).  A cap trims the listing only: the verdicts and
    # the dimension are the family's
    def indented(report, cap):
        return json.dumps(report_json(report, cap), indent=2) + "\n"

    caps = (None, 0, 2)
    whole = ("connected", "is_unmixed", "is_accessible_system", "oracle_dimension")
    for g in [*itertools.takewhile(lambda g: g.n <= 6, atlas()), cycle_graph(16)]:
        report = enumerate_cutsets(g)
        uncapped = report_json(report)
        for cap in caps:
            obj = report_json(report, cap)
            assert "".join(_report_pieces(report, cap)) == indented(report, cap)
            assert {k: obj[k] for k in whole} == {k: uncapped[k] for k in whole}

    reports = []

    def recording(g, **kwargs):
        reports.append(enumerate_cutsets(g, **kwargs))
        return reports[-1]

    monkeypatch.setattr(bei._verb_cutsets, "enumerate_cutsets", recording)
    for base, pendant in BENCH_PRODUCTS:
        path = tmp_path / f"{base}o{pendant}.g6"
        product = full_corona(bei.graph_from_name(base), bei.graph_from_name(pendant))
        path.write_text(to_graph6(product) + "\n")
        for cap in caps:
            argv = ["cutsets", "--input", str(path)]
            if cap is not None:
                argv += ["--size-cap", str(cap)]
            code, out, _ = run(argv, capsys)
            assert code == 0 and len(reports) == 1
            assert out == indented(reports.pop(), cap)


def test_cutsets_jsonl_lists_the_json_reports_rows(tmp_path, capsys):
    # a factored family, in the report's order and under the same cap
    product = full_corona(complete_graph(2), cycle_graph(8))
    assert factors_pendants(product)
    path = tmp_path / "k2oc8.g6"
    path.write_text(to_graph6(product) + "\n")
    for cap in ([], ["--size-cap", "0"], ["--size-cap", "2"]):
        code, out, _ = run(["cutsets", "--input", str(path), "--out", "jsonl", *cap], capsys)
        assert code == 0
        listed = [(obj["cutset"], obj["components"]) for obj in map(json.loads, out.splitlines())]
        code, out, _ = run(["cutsets", "--input", str(path), "--out", "json", *cap], capsys)
        report = json.loads(out)
        assert code == 0 and listed
        assert listed == list(zip(report["cutsets"], report["per_cutset_components"]))


class CountedWrites(io.StringIO):
    """A stdout that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("out", ["json", "jsonl"])
def test_write_out_writes_in_buffer_sized_chunks(capsys, monkeypatch, out):
    # C16 lists 2,191 cutsets: each write but the last holds at least a
    # buffer's worth, so no row is a write of its own
    argv = ["cutsets", "--input", "C16", "--out", out]
    _, printed, _ = run(argv, capsys)
    stdout = CountedWrites()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    text = stdout.getvalue()
    assert text == printed and text.count("\n") >= 2191
    buffers = len(text) // io.DEFAULT_BUFFER_SIZE
    assert buffers <= stdout.writes <= buffers + 1


def test_scan_jobs_agree_on_a_mixed_corpus(tmp_path, capsys, monkeypatch, square_leaves_product):
    # with no in-process allowance, --jobs 2 scans the first graph in-process
    # and a real pool takes the rest; a malformed and an over-bound line sit on
    # each side of the switch.  The graphs are not unmixed (C4, the
    # square-leaves product), accessible (K3, P4), and unmixed but not
    # accessible (FFwc?)
    monkeypatch.setattr(bei.bms, "_POOL_AFTER_S", 0)
    monkeypatch.setattr(bei.bms, "_usable_cpus", lambda: 2)
    big = to_graph6(bei.Graph(30))
    lines = [
        "!!bad!!",
        big,
        to_graph6(cycle_graph(4)),
        "!!bad!!",
        big,
        *(to_graph6(g) for g in (square_leaves_product, complete_graph(3), path_graph(4))),
        "FFwc?",
    ]
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(line + "\n" for line in lines))
    runs = []
    for jobs in ("1", "2"):
        scripts = tmp_path / f"scripts-{jobs}"
        argv = ["scan", "--input", str(corpus), "--jobs", jobs, "--scripts-dir", str(scripts)]
        code, out, err = run(argv, capsys)
        assert code == 0
        files = {p.name: p.read_text() for p in scripts.iterdir()}
        runs.append((out.replace(str(scripts), "<scripts>"), err, files))
    assert runs[0] == runs[1]
    out, err, files = runs[0]
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["graph6"] for r in records] == [lines[i] for i in (2, 5, 6, 7, 8)]
    verdicts = [(r["unmixed"], r["accessible"]) for r in records]
    assert verdicts == [(False, False), (False, False), (True, True), (True, True), (True, False)]
    assert [json.loads(line)["line"] for line in err.splitlines()] == [1, 2, 4, 5]
    assert sorted(files) == ["000007.m2", "000008.m2"]


@pytest.mark.parametrize(
    "spec_l",
    [[-1, *range(1, 10**5)], [5] * 10**5, [0] * 10**5],
    ids=["negative", "out-of-range", "repeated"],
)
def test_a_bad_vertex_in_a_long_list_is_named_alone(capsys, monkeypatch, spec_l):
    spec = {"base": "Bw", "L": spec_l, "pendant": "@"}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(["export", "-i", "-"], capsys)
    assert out == ""
    assert_invalid_input(code, err)
    assert len(err.encode()) < 200


def test_scan_writes_each_record_as_it_is_found(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nCr\nC~\n")
    out = io.StringIO()
    seen = []
    real = bei.bms._analyze

    def analyze(g, bound):
        seen.append(out.getvalue())
        return real(g, bound)

    monkeypatch.setattr(bei.bms, "_analyze", analyze)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["scan", "--input", str(corpus)]) == 0
    # when the last graph is analysed, the first two records are out
    assert len(seen) == 3
    assert seen[2].count("\n") == 2 and out.getvalue().startswith(seen[2])


def test_scan_reads_its_input_as_it_scans():
    # one line in, and its record comes out while stdin is still open, with
    # the child's stdout block-buffered as it is on a pipe by default
    env = python_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
        [sys.executable, "-m", "bei.cli", "scan", "--input", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    ) as proc:
        try:
            proc.stdin.write("Bw\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no record before stdin was closed"
            assert json.loads(proc.stdout.readline())["graph6"] == "Bw"
        finally:
            proc.stdin.close()
        assert proc.stdout.read() == ""
    assert proc.returncode == 0


def test_a_scripts_dir_below_a_file_is_refused_before_any_record(tmp_path, capsys):
    # as one in the file's own place is (golden scan-scripts-dir-not-a-directory):
    # the first graph is not accessible, so no script is due before the second
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Cr\nBw\n")
    argv = ["scan", "--input", str(corpus), "--scripts-dir", str(corpus / "a" / "b")]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith("[Errno 20] Not a directory: ")


def test_cli_import_leaves_the_process_pool_unloaded():
    # nor dataclasses, whose import pulls in inspect, ast, dis and tokenize
    code = (
        "import sys, bei.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing', 'dataclasses', 'inspect')))"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_small_parallel_scan_starts_no_pool(tmp_path):
    # the in-process work stays below the pool's threshold
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nCr\nC~\n")
    code = (
        "import sys; from bei.cli import main; "
        f"code = main(['scan', '--input', {str(corpus)!r}, '--jobs', '2']); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    *records, last = proc.stdout.splitlines()
    assert last == "0 []"
    assert [json.loads(record)["graph6"] for record in records] == ["Bw", "Cr", "C~"]


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# K_300 with a copy of K_300 at every vertex: 90,300 vertices and about
# 13.5 million edges from a spec of about 17 kB
K300 = to_graph6(complete_graph(300))
BIG_SPEC = json.dumps({"base": K300, "L": list(range(300)), "pendant": K300})


# K_5000: the header '~' plus 5000 in three digits, 12,497,500 one-bits
# (2,082,916 characters of six) and a last character holding four
K5000_G6 = "~@MG" + "~" * 2082916 + chr(63 + 0b111100)


@pytest.mark.parametrize(
    "name, text, n",
    [
        ("big.json", '{"n": 1000000000}', 1000000000),
        ("big.txt", "0 999999999\n", 1000000000),
        ("spec.json", BIG_SPEC, 90300),
        ("big.g6", K5000_G6, 5000),
        # decoding K_5000 takes seconds but only about 25 MB, so only the
        # timeout shows whether the spec's graph6 was decoded
        ("spec.json", json.dumps({"base": K5000_G6, "L": [0], "pendant": "@"}), 5001),
        # a graph name, given inline: there is no file to write
        ("P200000", None, 200000),
    ],
    ids=["json-object", "edge-list", "corona-spec", "graph6", "corona-spec-graph6", "name"],
)
def test_declared_size_is_checked_before_the_graph_is_built(tmp_path, name, text, n):
    # each graph would need gigabytes; the process may use 1 GiB
    source = name
    if text is not None:
        source = tmp_path / name
        source.write_text(text)
    proc = run_python(
        ["-m", "bei.cli", "cutsets", "--input", str(source)],
        preexec_fn=_limit_address_space,
        timeout=1.5,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": f"{n} vertices exceeds the enumeration bound 24",
        "kind": "bound-exceeded",
    }


def test_a_graph_too_large_for_memory_is_invalid_input(tmp_path):
    pytest.importorskip("resource")
    # 2 * 10^8 adjacency rows need 1.6 GB; the process may use 1 GiB, so the
    # first allocation fails
    source = tmp_path / "big.json"
    source.write_text('{"n": 200000000, "edges": []}')
    proc = run_python(
        ["-m", "bei.cli", "export", "--input", str(source)],
        preexec_fn=_limit_address_space,
        timeout=1.5,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["kind"] == "invalid-input" and err["error"].startswith("out of memory: ")


P3_BASE = str(GOLDEN / "inputs" / "p3_base.json")


@pytest.mark.parametrize(
    "family",
    [["full-corona"], ["l-corona", "--ell", "3"], ["path"]],
    ids=lambda family: family[0],
)
def test_a_closed_form_over_a_large_base_builds_no_base_graph(family):
    # K_100000 as adjacency bitsets holds 10^10 bits and P_100000 about
    # half as many; the process may use 1 GiB
    argv = ["invariants", "--family", *family, "--n", "100000", "--pendant-base-json", P3_BASE]
    proc = run_python(
        ["-m", "bei.cli", *argv], preexec_fn=_limit_address_space, timeout=10
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["n"] == 100000


def test_without_a_pendant_graph_or_a_script_no_family_builds_its_base(capsys, monkeypatch):
    def no_graph(n):
        raise AssertionError(f"a base graph on {n} vertices was built")

    for module in (bei.invariants, importlib.import_module("bei._verb_invariants")):
        for name in ("complete_graph", "path_graph"):
            monkeypatch.setattr(module, name, no_graph, raising=False)
    for family in (
        ["full-corona", "--n", "3"],
        ["l-corona", "--n", "4", "--ell", "2"],
        ["cm-closed", "--b-graph", "P4"],
        ["path", "--n", "3"],
    ):
        argv = ["invariants", "--family", *family, "--pendant-base-json", P3_BASE]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["base"]["h"] == 3


@pytest.mark.parametrize("pendant_graph", [[], ["--pendant-graph", "P3"]], ids=["record", "graph"])
def test_invariants_over_a_pendant_record_enumerate_nothing(capsys, monkeypatch, pendant_graph):
    def no_search(*args):
        raise AssertionError("a cutset search ran")

    monkeypatch.setattr(bei.cutsets, "iter_cutsets", no_search)
    for family in (
        ["full-corona", "--n", "3"],
        ["l-corona", "--n", "4", "--ell", "2"],
        ["cm-closed", "--b-graph", "P4"],
        ["path", "--n", "4"],
    ):
        argv = ["invariants", "--family", *family, "--pendant-base-json", P3_BASE, *pendant_graph]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["dim"]["provenance"] == "formula:l-corona-dimension"


def loaded_verb_modules(argv):
    """The verb modules that a fresh interpreter has loaded after
    ``main(argv)``."""
    code = (
        "import contextlib, io, json, sys; from bei.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        f"    main({argv!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('bei._verb_'))))"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv, loaded",
    [(["cutsets", "-i", "C4"], ["bei._verb_cutsets"]), (["--help"], [])],
    ids=["cutsets", "help"],
)
def test_a_call_loads_only_its_verbs_module(argv, loaded):
    assert loaded_verb_modules(argv) == loaded


# a call of each verb that exits 0
VERB_CALLS = {
    "construct": ["--corona", "K3", "P3"],
    "cutsets": ["-i", "C4"],
    "check": ["--cm-closed", "-i", "P4"],
    "invariants": ["--family", "path", "--n", "2", "--pendant-base-json", P3_BASE],
    "gadget": ["--kind", "d2", "-i", "P3"],
    "scan": ["-i", str(GOLDEN / "inputs" / "corpus.g6")],
    "export": ["-i", "P3"],
}


@pytest.mark.parametrize("verb", VERB_NAMES)
def test_running_the_cli_module_compiles_it_once(verb):
    # under python -m bei.cli, cli.py runs as __main__: a verb module's
    # ``from .cli import`` must find it there, not import bei.cli afresh
    proc = run_python(["-X", "importtime", "-m", "bei.cli", verb, *VERB_CALLS[verb]])
    assert proc.returncode == 0, proc.stderr
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "bei.cutsets" in imported and "bei.cli" not in imported


@pytest.mark.parametrize("verb", VERB_NAMES)
def test_an_empty_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch, verb):
    # results go to stdout: no verb takes -o or --output, so an output file
    # name, empty or not, is a usage error before the verb runs
    def not_run(args):
        raise AssertionError(f"{verb} ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(importlib.import_module(f"bei._verb_{verb}"), "run", not_run)
    for option in (["-o", ""], ["-o", "x"], ["--output", "x"]):
        code, out, _ = parser_exit(main, [verb, *VERB_CALLS[verb], *option], capsys)
        assert code == 2 and out == ""
    assert not any(tmp_path.iterdir())


def capture(argv):
    """Run one CLI call in an empty directory that holds only ``inputs``,
    a link to the golden inputs, and return what it did; what the call
    writes goes with the directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.symlink(GOLDEN / "inputs", Path(work, "inputs"))
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem
)
def test_golden_call(path):
    case = json.loads(path.read_text())
    assert capture(case["argv"]) == case


if __name__ == "__main__":
    for path in sorted(GOLDEN.glob("*.json")):
        case = capture(json.loads(path.read_text())["argv"])
        path.write_text(json.dumps(case, indent=2) + "\n")
