"""A job's report does not depend on the jobs run before it in the same
process: every sequence drawn from a small pool gives each job the bytes it
gives when run alone, after `helpers.clear_memos`.  And the reports of one
field agree with each other: a rank report's tame terms with the oracle's
estimates for its S, and its Stickelberger lambdas with the lambda report."""

import json
import re
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from helpers import MEMOS, clear_memos
from tamerank.characters import FieldSpec
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
    # the oracle on the field and S of each rank job above
    ("oracle", {"p": 7, "f": 5, "S": [11, 29]}),
    ("oracle", {"p": 7, "f": 13, "S": [3, 29]}),
    ("oracle", {"p": 7, "f": 13, "H": [9], "S": [5]}),
    # p = 5 at f = 7 shares unit_group(35) with the jobs on (7, f = 5) above
    ("lambda", {"p": 5, "f": 7}),
    ("rank", {"p": 5, "f": 7, "S": [2, 11], "lambda": AUTO}),
    # the 3^2 and 5^2 blocks of unit_group(45) and unit_group(75) take the
    # ell-adic part of the discrete log
    ("lambda", {"p": 3, "f": 25}),
    ("oracle", {"p": 3, "f": 25, "S": [2, 7]}),
    ("lambda", {"p": 5, "f": 9}),
    ("oracle", {"p": 5, "f": 9, "S": [2, 11]}),
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


def field_of(report: dict) -> FieldSpec:
    field = report["field"]
    return FieldSpec(field["p"], field["f"], tuple(field["H"]))


def disagreements(texts: list) -> list:
    """Where reports of one field disagree: for each class of a rank report,
    the sum over q in S_chi of d_chi p^{m_q} against that class's estimated
    rank summed over the rows of an oracle report for the same S; and the
    lambda of a rank record for an odd chi != omega against d_chi times the
    lambda report's row for chi."""
    reports = [json.loads(text) for text in texts]
    problems = []
    for rank in (r for r in reports if r["command"] == "rank"):
        field, p = field_of(rank), rank["field"]["p"]
        for other in reports:
            if other["command"] == "oracle" and field_of(other) == field \
                    and {row["q"] for row in other["rows"]} == set(rank["S"]):
                for rec in rank["records"]:
                    tame = sum(rec["d_chi"] * p ** rec["m_map"][str(q)] for q in rec["S_chi"])
                    estimated = sum(row["estimated"] for row in other["rows"]
                                    if row["character"] == rec["character"])
                    if tame != estimated:
                        problems.append(f"{rec['character']} over {field}: tame {tame}, oracle {estimated}")
            if other["command"] == "lambda" and field_of(other) == field:
                rows = {row["character"]: row["lambda"] for row in other["rows"]}
                for rec in rank["records"]:
                    if rec["parity"] == -1 and rec["character"] != "omega^1" \
                            and rec["lambda"]["value"] != rec["d_chi"] * rows[rec["character"]]:
                        problems.append(f"{rec['character']} over {field}: lambda {rec['lambda']}, "
                                        f"table row {rows[rec['character']]}")
    return problems


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
    texts = [report(i) for i in sequence]
    assert texts == expected, sequence
    assert disagreements(texts) == [], sequence


def test_the_pool_reports_agree_with_each_other():
    # every rank job meets its oracle job and its field's lambda job
    texts = [alone(i) for i in range(len(POOL))]
    rank_jobs = [doc for command, doc in POOL if command == "rank"]
    assert len(rank_jobs) == 4 and all(("oracle", {k: v for k, v in doc.items() if k != "lambda"}) in POOL
                                       for doc in rank_jobs)
    assert disagreements(texts) == []
    # and the check reads a moved estimate and a moved lambda row
    moved = json.loads(texts[8])
    moved["rows"][1]["estimated"] += 1
    assert len(disagreements(texts[:8] + [json.dumps(moved)])) == 1
    moved = json.loads(texts[0])
    moved["rows"][0]["lambda"] += 1
    assert len(disagreements([json.dumps(moved)] + texts[1:])) == 1
