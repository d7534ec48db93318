"""A report does not depend on the jobs that ran before it in the same
process.  Consecutive jobs on one field share its characters, their classes,
their labels and their S_chi tests (`characters.field_characters`), so each
report of a mixed sequence is compared byte for byte with the same job run
from an empty cache."""

import json

from tamerank import cli
from tamerank.characters import field_characters

AUTO = {"mode": "auto", "table": {"omega^1": 0}}
ZERO = {"mode": "table", "table": {"all": 0}}
A = {"p": 5, "f": 13, "H": [3]}
A_OTHER_GENERATOR = {"p": 5, "f": 13, "H": [9]}  # <9> = <3> = {1, 3, 9} mod 13
B = {"p": 5, "f": 7}

JOBS = [
    ("rank", {**A, "S": [2, 7], "lambda": AUTO}),
    ("rank", {**B, "S": [2, 3, 11], "lambda": ZERO}),
    ("rank", {**A, "S": [2, 7], "lambda": AUTO}),
    ("rank", {**A_OTHER_GENERATOR, "S": [2, 7, 11], "lambda": AUTO}),
    # a chain of S grown one prime at a time
    ("rank", {**A, "S": [2], "lambda": ZERO}),
    ("rank", {**A, "S": [2, 7], "lambda": ZERO}),
    ("rank", {**A, "S": [2, 7, 11], "lambda": ZERO}),
    ("rank", {**A, "S": [2, 7, 11, 31], "lambda": ZERO}),
    ("oracle", {**A, "S": [2, 7]}),
    ("lambda", A),
    ("chars", A),
]


def _report(command: str, doc: dict) -> str:
    return json.dumps(cli.run(cli.parse_config(json.dumps(doc)), command), indent=2)


def _field(doc: dict):
    return cli.parse_config(json.dumps(doc)).field


def test_reports_do_not_depend_on_earlier_jobs():
    field_characters.cache_clear()
    in_sequence = []
    for command, doc in JOBS:
        in_sequence.append(_report(command, doc))
        chars, classes = field_characters(cli.parse_config(json.dumps(doc)).field)
        assert type(chars) is tuple and type(classes) is tuple
        assert all(type(cl) is tuple for cl in classes)
        # class members are the enumerated objects, so they share labels and memos
        assert {id(m) for cl in classes for m in cl} == {id(c) for c in chars}
    runs = sum(1 for i in range(len(JOBS)) if i == 0 or _field(JOBS[i - 1][1]) != _field(JOBS[i][1]))
    assert runs == 3  # A, B, then A spelt two ways: one field, so one run
    info = field_characters.cache_info()
    assert (info.misses, info.maxsize, info.currsize) == (runs, 1, 1)
    for (command, doc), text in zip(JOBS, in_sequence):
        field_characters.cache_clear()
        assert _report(command, doc) == text, (command, doc)
