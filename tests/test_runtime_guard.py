"""The runtime is exact and standard-library only: every module of the package
is parsed, and no float literal, true division, float() call or cmath import
may appear, nor any absolute import outside a fixed standard-library list.
Only the job layer (cli.py and rank.py) raises ConfigError."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tamerank").glob("*.py"))

STDLIB_ALLOWED = {
    "__future__", "argparse", "array", "dataclasses", "fractions", "functools",
    "itertools", "json", "math", "operator", "sys", "typing",
}


def offences(tree: ast.AST) -> list:
    out = []
    for node in ast.walk(tree):
        where = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"line {where}: float literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append(f"line {where}: true division")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append(f"line {where}: float() call")
        elif isinstance(node, ast.Import):
            out += [f"line {where}: import {a.name}" for a in node.names
                    if a.name.split(".")[0] not in STDLIB_ALLOWED]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] not in STDLIB_ALLOWED:
                out.append(f"line {where}: from {node.module} import")
    return out


# job validation belongs to the job layer: the math modules raise ValueError
CONFIG_RAISERS = {"cli.py", "rank.py"}


def raises_config_error(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                return True
    return False


def test_only_the_job_layer_raises_config_error():
    raisers = {path.name for path in SOURCES
               if raises_config_error(ast.parse(path.read_text(), filename=str(path)))}
    assert raisers == CONFIG_RAISERS


def test_sources_found():
    assert {"arith.py", "frobenius.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_is_float_free_and_stdlib_only(path):
    assert offences(ast.parse(path.read_text(), filename=str(path))) == []


def test_guard_catches_each_offence():
    source = "import cmath\nfrom numpy import array\nx = 1.5\ny = 3 / 2\ny /= 2\nz = float(3)\n"
    found = offences(ast.parse(source))
    assert len(found) == 6, found
