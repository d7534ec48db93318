"""The runtime is exact and standard-library only: every module of the package
is parsed, and no float literal, true division, float() call or cmath import
may appear, nor any absolute import outside a fixed standard-library list.
Importing the package loads no dataclass machinery and no fractions.  Only
the job layer (cli.py and rank.py) raises ConfigError.  Every module-level
function and class, and every method and property, is exported or used by
the package itself, save a named few that a caller outside it keeps."""

import ast
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import _snf_exponent

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tamerank").glob("*.py"))
SOURCES_BY_NAME = {path.name: path for path in SOURCES}

STDLIB_ALLOWED = {
    "__future__", "argparse", "array", "functools",
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


# `dataclasses` loads inspect, which loads ast, dis and tokenize,
# `fractions` loads decimal, and `argparse` loads gettext: a cost paid at
# every start of the CLI, before any job runs; only `cli.main` imports
# argparse, when it parses argv
IMPORT_FORBIDDEN = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal",
                    "argparse", "gettext"}


def test_import_loads_no_dataclass_machinery():
    code = "import sys, tamerank, tamerank.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert "tamerank.cli" in loaded
    assert loaded & IMPORT_FORBIDDEN == set()


def test_guard_catches_each_offence():
    source = "import cmath\nfrom numpy import array\nx = 1.5\ny = 3 / 2\ny /= 2\nz = float(3)\n"
    found = offences(ast.parse(source))
    assert len(found) == 6, found


# module-level functions and classes, methods and properties that the package
# neither exports nor uses, each with the caller outside it that keeps it
OUTSIDE_CALLERS = {
    "class_representatives": "benchmarks/checks.py",
    "inverse": "benchmarks/checks.py",
    "p_valuation": "benchmarks/checks.py",
    "root_matrix": "benchmarks/tracer.py",
}


def _uses(node: ast.AST) -> Counter:
    """How often each name occurs in node, as a variable or an attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def unused_definitions(trees: dict) -> set:
    """(module, name) of each module-level function or class of the modules
    (file name -> tree) that `__init__.py` does not export and that no other
    top-level statement of the package names, as a variable or an attribute;
    and of each method or property of a module-level class, dunders aside,
    whose name nothing in the package names outside its own definition.

    Both match by name, not by binding.  So the one entry `inverse` keeps
    `DirichletCharacter.inverse`, which benchmarks/checks.py calls, and
    `RootOfUnity.inverse` rides on it; a use of either would keep both."""
    exports = {alias.asname or alias.name for node in trees["__init__.py"].body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    names = [_uses(stmt) for stmt in statements]
    unused = {(module, stmt.name) for module, tree in trees.items() for stmt in tree.body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in exports
              and not any(stmt.name in used for other, used in zip(statements, names) if other is not stmt)}
    everywhere = sum(names, Counter())
    return unused | {(module, method.name) for module, tree in trees.items() for stmt in tree.body
                     if isinstance(stmt, ast.ClassDef) for method in stmt.body
                     if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
                     and everywhere[method.name] == _uses(method)[method.name]}


def package_trees() -> dict:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_every_definition_is_exported_or_used():
    assert {name for _, name in unused_definitions(package_trees())} == set(OUTSIDE_CALLERS)
    for name, caller in OUTSIDE_CALLERS.items():
        assert name in (ROOT / caller).read_text()


def test_dead_code_guard_catches_unused_helpers():
    def appended(module: str, source: str) -> dict:
        return {**package_trees(), module: ast.parse(SOURCES_BY_NAME[module].read_text() + "\n\n" + source)}

    planted = appended("arith.py", "def _planted(n):\n    return _planted(n - 1) if n else 0\n")
    assert ("arith.py", "_planted") in unused_definitions(planted)
    # a method that only calls itself, on a class the package uses
    trees = package_trees()
    ring = next(stmt for stmt in trees["localring.py"].body
                if isinstance(stmt, ast.ClassDef) and stmt.name == "LocalCoefficientRing")
    ring.body += ast.parse("def _planted(self, n):\n    return self._planted(n - 1) if n else 0\n").body
    assert ("localring.py", "_planted") in unused_definitions(trees)
    # the Smith reduction that only the tests' dense oracle uses
    left = appended("residue.py", inspect.getsource(_snf_exponent))
    assert ("residue.py", "_snf_exponent") in unused_definitions(left)
