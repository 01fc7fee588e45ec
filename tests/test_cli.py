"""Command-line front end: bad input ends in a JSON error and exit code 1,
and the verdict witnesses come from one enumeration."""

import json

import pytest

from bei.cli import main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def assert_invalid_input(code, err):
    assert code == 1
    assert json.loads(err)["kind"] == "invalid-input"


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"K4"', "null"])
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
