"""The traced benchmark wraps ``bei`` functions by name: every target it
lists must still exist, or only the traced run would notice."""

import importlib
import importlib.util
import json
from pathlib import Path

from conftest import run_python

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for modname, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_importing_the_cli_loads_every_traced_module():
    """``Recorder.install`` reads each traced module from ``sys.modules``
    after ``import bei.cli``, so the CLI must still load them all at import.
    A benchmark whose recorder skips a module that is not loaded lifts this
    test, and with it the need for the CLI to load what a verb never uses."""
    code = "import json, sys, bei.cli; print(json.dumps(sorted(sys.modules)))"
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {modname for modname, _, _ in load_spans().TARGETS} <= loaded


def test_the_import_log_names_the_modules_the_benchmark_reads():
    """``bench/run.py`` reads the import times of ``bei.graph``, ``bei.bms``
    and ``bei.cli`` from ``python -X importtime -c "import bei.cli"``, which
    logs only import statements: a module loaded through
    ``importlib.import_module`` or ``bei.__getattr__`` is missing there."""
    proc = run_python(["-X", "importtime", "-c", "import bei.cli"])
    assert proc.returncode == 0, proc.stderr
    logged = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert {"bei.graph", "bei.bms", "bei.cli"} <= logged
