"""The README's Caches table lists every memo of the package: each
`functools.lru_cache` wrapper a module defines and each `cached_property`
of a package class."""

import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import tamerank

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name: importlib.import_module(f"tamerank.{info.name}")
           for info in pkgutil.iter_modules(tamerank.__path__) if info.name != "__main__"}


def listed_names() -> list:
    """Every backquoted name in the first column of the Caches table."""
    section = README.read_text().split("\n## Caches\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]


def package_memos() -> set:
    """`module.name` of each lru_cache wrapper a module defines, and
    `Class.name` of each cached_property of a class it defines."""
    memos = set()
    for short, module in MODULES.items():
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__wrapped__.__module__ == module.__name__:
                memos.add(f"{short}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                memos |= {f"{obj.__name__}.{attr}" for attr, value in vars(obj).items()
                          if isinstance(value, functools.cached_property)}
    return memos


def unlisted(memos: set, names: list) -> set:
    """The memos that no name gives, whole or after a module prefix."""
    return {memo for memo in memos if not any(n == memo or n.endswith("." + memo) for n in names)}


def test_every_memo_is_in_the_caches_table():
    memos = package_memos()
    assert {"arith.unit_group", "characters._latest_block_duals", "FieldSpec.group_order",
            "JobConfig.field"} <= memos
    assert unlisted(memos, listed_names()) == set()


def test_guard_catches_an_unlisted_memo():
    names = listed_names()
    for memo in ["arith.unit_group", "JobConfig.field"]:
        assert unlisted(package_memos(), [n for n in names if not n.endswith(memo)]) == {memo}


def test_every_module_name_in_the_caches_table_exists():
    resolved = 0
    for name in listed_names():
        short, _, path = name.partition(".")
        if short in MODULES and path:
            obj = MODULES[short]
            for attr in path.split("."):
                assert hasattr(obj, attr), name
                obj = getattr(obj, attr)
            resolved += 1
    assert resolved >= 15
