"""Output checks that hold for every seed, run outside any timed region.

`check_report` takes a job's command, its document and its serialised report,
and returns a list of problems; an empty list means the report is accepted.
"""

from __future__ import annotations

import json

from tamerank.characters import FieldSpec, class_representatives, enumerate_characters
from tamerank.cli import validate_rank_report
from tamerank.errors import TameRankError
from tamerank.stickelberger import bernoulli_b1


def field_of(doc: dict) -> FieldSpec:
    return FieldSpec(doc["p"], doc.get("f", 1), tuple(doc.get("H", [])))


def field_key(doc: dict) -> tuple:
    """Identity of the field K a job runs on, independent of how H is written."""
    field = field_of(doc)
    return field.p, field.f, field.subgroup_elements


def _check_rank(doc, report):
    try:
        validate_rank_report(report)
    except TameRankError as exc:
        return [f"rank identity: {exc}"]
    return []


def _euler_factor_vanishes(chi) -> bool:
    """Whether 1 - chi^{-1}(p) is a non-unit: p does not divide the conductor
    and chi(p) has p-power order (1 included)."""
    value = chi.inverse().value(chi.p)
    return value is not None and value.order_is_p_power(chi.p)


def _check_lambda(doc, report):
    # The constant term of the series is (1 - chi^{-1}(p)) B_{1,chi^{-1}} up to
    # a unit, so lambda >= 1 iff p | B_{1,chi^{-1}} or that Euler factor is a
    # non-unit (a split p for a character unramified at p).
    problems = []
    by_label = {chi.label(): chi for chi in enumerate_characters(field_of(doc))}
    for row in report["rows"]:
        chi = by_label.get(row["character"])
        if chi is None:
            problems.append(f"unknown character {row['character']}")
            continue
        if row["mu_zero"] is not True:
            problems.append(f"mu_zero is not true for {row['character']}")
        divisible = bernoulli_b1(chi.inverse()).p_valuation() >= 1
        euler = _euler_factor_vanishes(chi)
        if (row["lambda"] >= 1) != (divisible or euler):
            problems.append(
                f"lambda = {row['lambda']} for {row['character']} but "
                f"p | B_1(chi^-1) is {divisible} and the Euler factor vanishes is {euler}"
            )
    return problems


def _check_oracle(doc, report):
    if not report["rows"]:
        return ["oracle report has no rows"]
    return [] if report["all_pass"] is True else ["oracle all_pass is not true"]


def _check_chars(doc, report):
    problems = []
    order = field_of(doc).group_order
    if len(report["characters"]) != order:
        problems.append(f"{len(report['characters'])} characters, group order {order}")
    d_chi = {c["label"]: c["d_chi"] for c in report["characters"]}
    members = [label for cl in report["classes"] for label in cl]
    if sorted(members) != sorted(d_chi):
        problems.append("classes do not partition the characters")
    for cl in report["classes"]:
        if any(d_chi.get(label) != len(cl) for label in cl):
            problems.append(f"class of {cl[0]} has size {len(cl)} != d_chi")
    return problems


_CHECKS = {
    "rank": _check_rank,
    "lambda": _check_lambda,
    "oracle": _check_oracle,
    "chars": _check_chars,
}


def check_report(command: str, doc: str, text: str) -> list:
    """Problems with one serialised report; [] when it is accepted."""
    report = json.loads(text)
    job = json.loads(doc)
    problems = []
    if report.get("command") != command:
        problems.append(f"report command {report.get('command')!r} != {command!r}")
    expected_field = {"p": job["p"], "f": job.get("f", 1), "H": job.get("H", [])}
    if report.get("field") != expected_field:
        problems.append(f"report field {report.get('field')} != job field {expected_field}")
    try:
        problems += _CHECKS[command](job, report)
    except (KeyError, TypeError, TameRankError) as exc:
        problems.append(f"{command} report cannot be checked: {exc!r}")
    return problems


def class_count(command: str, doc: str, text: str) -> int:
    """Conjugacy classes of the job's field, read from the report where it
    lists all of them."""
    report = json.loads(text)
    if command == "rank":
        return len(report["records"])
    if command == "chars":
        return len(report["classes"])
    job = json.loads(doc)
    if command == "oracle":
        return len(report["rows"]) // len(job["S"])
    chars = enumerate_characters(field_of(job))
    return len(class_representatives(chars, job["p"]))
