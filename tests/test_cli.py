"""Command-line front end: bad input ends in a JSON error and exit code 1,
the verdict witnesses come from one enumeration, and the recorded calls
under ``tests/golden`` keep their exact stdout, stderr and exit code.

Each golden file holds one call's ``argv`` (paths relative to
``tests/golden``) and what it printed.  After a deliberate output change,
``PYTHONPATH=src python tests/test_cli.py`` rewrites every golden file
from the current CLI.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bei
from bei import complete_graph, cycle_graph, enumerate_cutsets, path_graph, to_graph6
from bei.cli import _render_report, build_parser, main

from conftest import atlas

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


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_scan_rejects_jobs_below_one(tmp_path, capsys, jobs):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nCr\n")
    code, out, err = run(["scan", "--input", str(corpus), "--jobs", jobs], capsys)
    assert out == ""
    assert_invalid_input(code, err)
    output = tmp_path / "out.jsonl"
    argv = ["scan", "--input", str(corpus), "--jobs", jobs, "--output", str(output)]
    code, out, err = run(argv, capsys)
    assert_invalid_input(code, err)
    assert not output.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--corona", "K2", "K1", "--bound", "1"],  # construct never enumerates
        ["scan", "--input", "corpus.g6", "--format", "json"],  # a scan reads graph6 only
    ],
    ids=["construct-bound", "scan-format"],
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


def test_construct_rejects_repeated_attach_vertex(capsys):
    argv = ["construct", "--l-corona", "K3", "P3", "--attach", "0,0"]
    code, out, err = run(argv, capsys)
    assert out == ""
    assert_invalid_input(code, err)
    code, out, _ = run(["construct", "--l-corona", "K3", "P3", "--attach", "0,2"], capsys)
    assert code == 0 and out.strip()


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


# the corona-cutsets benchmark products: work-bound, then output-dense
BENCH_PRODUCTS = [
    ("K4", "C4"), ("K3", "C5"), ("K2", "C8"), ("C12", "K1"), ("P12", "K1"), ("C8", "K2")
]


def test_cutsets_json_is_the_indented_report(tmp_path, capsys, monkeypatch):
    # the report renderer against json's indent encoder, with no size cap,
    # cap 0 and cap 2: through the CLI on the benchmark's corona products,
    # and on every atlas graph on at most 6 vertices (n = 0 and disconnected
    # graphs included), where a CLI call per graph would cost seconds
    def indented(report):
        return json.dumps(report.to_json(), indent=2) + "\n"

    caps = (None, 0, 2)
    for g in atlas():
        if g.n > 6:
            break
        for cap in caps:
            report = enumerate_cutsets(g, size_cap=cap)
            assert _render_report(report.to_json()) == indented(report)

    reports = []

    def recording(g, **kwargs):
        reports.append(enumerate_cutsets(g, **kwargs))
        return reports[-1]

    monkeypatch.setattr(bei.cli, "enumerate_cutsets", recording)
    for base, pendant in BENCH_PRODUCTS:
        path = tmp_path / f"{base}o{pendant}.g6"
        product = bei.corona(bei.graph_from_name(base), bei.graph_from_name(pendant))
        path.write_text(to_graph6(product) + "\n")
        for cap in caps:
            argv = ["cutsets", "--input", str(path)]
            if cap is not None:
                argv += ["--size-cap", str(cap)]
            code, out, _ = run(argv, capsys)
            assert code == 0 and len(reports) == 1
            assert out == indented(reports.pop())


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


def run_python(args, **kwargs):
    """A fresh interpreter that imports ``bei`` from the tree under test."""
    env = dict(os.environ)
    env.pop("BEI_BOUND", None)
    src = str(Path(bei.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


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
        f"code = main(['scan', '--input', {str(corpus)!r}, '--jobs', '2', "
        f"'--output', {str(tmp_path / 'out.jsonl')!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 3


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


def capture(argv):
    """Run one CLI call from the golden directory and return what it did."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
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
