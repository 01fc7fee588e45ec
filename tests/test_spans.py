"""The traced benchmark wraps ``bei`` functions by name: every target it
lists must still exist, or only the traced run would notice."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
