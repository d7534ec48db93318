"""The README's Caches table lists every memo of the package: each
`functools.lru_cache` wrapper a module defines, each `cached_property`
of a package class, and each kind of entry the Stickelberger `_TableCache`
keeps."""

import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import tamerank
from tamerank import stickelberger
from tamerank.cli import parse_config, run

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name: importlib.import_module(f"tamerank.{info.name}")
           for info in pkgutil.iter_modules(tamerank.__path__) if info.name != "__main__"}


def listed_rows() -> list:
    """The backquoted names in the first column of each row of the Caches
    table."""
    section = README.read_text().split("\n## Caches\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [re.findall(r"`([^`]+)`", row.split("|")[1]) for row in rows]


def listed_names() -> list:
    """Every backquoted name in the first column of the Caches table."""
    return [name for row in listed_rows() for name in row]


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


def table_cache_kinds() -> dict:
    """Each kind of key `_TableCache._entry` is called with (the first item
    of the key), mapped to `_TableCache.method` for the method that calls
    it."""
    kinds = {}
    for name, fn in vars(stickelberger._TableCache).items():
        if inspect.isfunction(fn):
            for kind in re.findall(r'_entry\(p, \("(\w+)"', inspect.getsource(fn)):
                kinds[kind] = f"_TableCache.{name}"
    return kinds


def unlisted_kinds(names: list) -> set:
    return {kind for kind, method in table_cache_kinds().items() if method not in names}


def test_every_table_cache_entry_is_in_the_caches_table(monkeypatch):
    # the kinds the source files, and the kinds a lambda job leaves in a
    # fresh cache, are the same three, and each method's row is listed
    kinds = table_cache_kinds()
    assert kinds == {"table": "_TableCache.get", "zeta": "_TableCache.scaled_zeta",
                     "logs": "_TableCache.unit_logs"}
    cache = stickelberger._TableCache()
    monkeypatch.setattr(stickelberger, "_TABLES", cache)
    stickelberger._character_columns.cache_clear()
    run(parse_config('{"p": 7, "f": 13}'), "lambda")
    assert {key[0] for key in cache.entries} == set(kinds)
    assert unlisted_kinds(listed_names()) == set()


def test_guard_catches_an_unlisted_table_cache_entry():
    rows = listed_rows()
    for kind, method in table_cache_kinds().items():
        [row] = [row for row in rows if method in row]
        kept = [name for other in rows if other is not row for name in other]
        assert unlisted_kinds(kept) == {kind}
