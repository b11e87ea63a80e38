"""The benchmark's tracer wraps library functions by name; a rename must fail here."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_trace_target_is_a_callable_module_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    assert tracing.TARGETS
    missing = [
        tracing.span_name(module, attr)
        for module, attrs in tracing.TARGETS.items()
        for attr in attrs
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
