"""Every function and method the benchmark tracer wraps exists in tamerank."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ untouched
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.FUNCTIONS and tracer.METHODS
    for _, module, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for _, module, cls, method in tracer.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, method, None)), f"{module}.{cls}.{method}"
