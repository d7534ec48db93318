"""A job's report does not depend on the jobs run before it in the same
process: every sequence drawn from a small pool gives each job the bytes it
gives when run alone, after `helpers.clear_memos`."""

import json
import re
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from helpers import MEMOS, clear_memos
from tamerank.cli import parse_config, run

README = Path(__file__).resolve().parents[1] / "README.md"

AUTO = {"mode": "auto", "table": {"omega^1": 0}}
# lambda and auto-mode rank jobs on p = 7 share the prime's residue tables
# across f = 5 and f = 13; H = [3] and H = [9] spell one subgroup mod 13
POOL = [
    ("lambda", {"p": 7, "f": 5}),
    ("lambda", {"p": 7, "f": 13}),
    ("rank", {"p": 7, "f": 5, "S": [11, 29], "lambda": AUTO}),
    ("rank", {"p": 7, "f": 13, "S": [3, 29], "lambda": AUTO}),
    ("lambda", {"p": 7, "f": 13, "H": [3]}),
    ("rank", {"p": 7, "f": 13, "H": [9], "S": [5], "lambda": AUTO}),
    ("oracle", {"p": 5, "f": 7, "S": [2, 11]}),
    ("chars", {"p": 7, "f": 5}),
]
ALONE = {}  # pool index -> report text of the job run alone


def report(index: int) -> str:
    """The job's report as benchmarks/worker.py writes it."""
    command, doc = POOL[index]
    return json.dumps(run(parse_config(json.dumps(doc)), command), indent=2)


def alone(index: int) -> str:
    if index not in ALONE:
        clear_memos()
        ALONE[index] = report(index)
    return ALONE[index]


def caches_table_rows() -> list:
    """The first backquoted name of each row of the README's Caches table."""
    section = README.read_text().split("\n## Caches\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and "`" in line.split("|")[1]]
    return [re.search(r"`([^`]+)`", row.split("|")[1]).group(1) for row in rows]


def test_clear_memos_covers_the_caches_table():
    assert list(MEMOS) == caches_table_rows()
    assert sum(clear is not None for clear in MEMOS.values()) == 14


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.integers(0, len(POOL) - 1), min_size=5, max_size=8))
@example([1, 0, 4, 5, 3, 2, 6, 7])
@example([5, 4, 4, 1, 3])  # both spellings of H, then the whole group
def test_reports_do_not_depend_on_the_jobs_before(sequence):
    expected = [alone(i) for i in sequence]
    clear_memos()
    assert [report(i) for i in sequence] == expected, sequence
