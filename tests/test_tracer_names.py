"""Every function and method the benchmark tracer wraps exists in tamerank."""

import importlib

from helpers import load_benchmark_module


def test_traced_names_exist(monkeypatch):
    tracer = load_benchmark_module("tracer", monkeypatch)
    assert tracer.FUNCTIONS and tracer.METHODS
    for _, module, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for _, module, cls, method in tracer.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, method, None)), f"{module}.{cls}.{method}"
