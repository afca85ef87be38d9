"""The benchmark's span tracer wraps package functions by (module, name);
every one of them has to exist, or traced benchmark runs fail."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, name", [(t[0], t[1]) for t in _targets()])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))
