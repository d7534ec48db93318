"""Batch front-end: validate job configurations, run the rank / oracle /
lambda / chars pipelines, and emit deterministic JSON reports.

Exit codes:
  0  ok
  2  invalid configuration: the job document, --levels, --lambda-table, a
     lambda table label that names no character class of the field, p or an
     S entry at or above psi_12 = 318665857834031151167461 (the primality
     test is exact only below it), an oracle job with an empty S, an oracle
     level n0 below the stabilization level of a prime in S, an oracle level
     n1 whose module for some q in S holds more than ORACLE_MODULE_BOUND =
     100000 digits (r_n1 d columns of e_n1 + VALUATION_GUARD_DIGITS digits) or
     reads more than ORACLE_DIGIT_BOUND = 200 digits per column, an oracle
     job on a field of more than ORACLE_CHARACTER_BOUND = 20000 characters,
     a job whose f*(p - 1) is above ENUMERATION_BOUND = 1000000 (it bounds
     the characters every job enumerates), an unwritable --out, or a
     closed standard output
  3  lambda unavailable for a required character
  4  oracle inconsistency: the brute-force module contradicts the theory,
     or an oracle row disagrees with the rank formula
  5  level bound reached: no Stickelberger series below level MAX_LEVEL
     has a unit coefficient, so lambda >= p^(MAX_LEVEL - 1)
  6  internal invariant violated (a bug, never a user error)
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property
from typing import List, Optional

from .arith import PRIME_BOUND, is_prime, unit_group
from .characters import FieldSpec, _local_degree, field_characters, omega
from .errors import (
    ConfigError,
    InvariantViolationError,
    LambdaUnavailableError,
    OracleInconsistencyError,
    PrecisionError,
    TameRankError,
)
from .frobenius import admissible, m_index, splitting_count, stabilization_level
from .rank import LambdaProvider, rank_total
from .residue import VALUATION_GUARD_DIGITS, quotient_growth, residue_module
from .stickelberger import lambda_minus

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LAMBDA = 3
EXIT_INCONSISTENT = 4
EXIT_PRECISION = 5
EXIT_INVARIANT = 6

# The oracle's level-n1 module for q has r_n1 cosets, and a character's
# presentation on it r_n1 d columns, d = dim O_chi, each read mod
# p^(e_n1 + VALUATION_GUARD_DIGITS).  Its size, columns times digits, bounds
# the work of the coset tables, the walk and the relations.  The digits also
# have a bound of their own: the discrete logs in (Z/p^(n1+1))^x and the
# Teichmueller lifts take time near their square.  d is taken as the dimension
# for the exponent of (Z/fp)^x, which no character of the field exceeds.  The
# largest module of a benchmark or test job has 624*4 columns of 7 digits
# (p = 13, f = 385, q = 677 at n1 = 2), and the most digits are 19 (p = 3,
# q = 7 at n1 = 14).
ORACLE_MODULE_BOUND = 100_000
ORACLE_DIGIT_BOUND = 200
# The oracle evaluates every class of the field's |G| characters on every
# module, and a module of few cosets does not bound |G| (p = 20011, S = [2]
# takes 1.8 s and 90 MB for its 20010 rows); the largest field of a
# benchmark or test job has 2880 characters (p = 13, f = 385).
ORACLE_CHARACTER_BOUND = 20_000
# Every job enumerates the field's characters, |G| <= phi(f p) <= f (p - 1)
# of them, and factors f p to do so.  f (p - 1) is checked when the job is
# parsed, before any factorization.  The largest benchmark or test job has
# f (p - 1) = 20010 (oracle on p = 20011), far below the bound.  Work grows
# with |G|: `chars` on p = 100003 runs in 0.85 s and 121 MB before its report
# is written (in process, 2-vCPU host), and a field at the bound takes about
# ten times that.
ENUMERATION_BOUND = 10 ** 6

_LAMBDA_MODES = {
    "table": (False, False),
    "greenberg-even": (True, False),
    "stickelberger-odd": (False, True),
    "auto": (True, True),
}


class JobConfig:
    """A validated job; main() applies the command-line flags to it."""

    def __init__(self, p: int, f: int = 1, subgroup: tuple = (), S: tuple = (),
                 provider: Optional[LambdaProvider] = None, oracle_levels: Optional[tuple] = None):
        self.p = p
        self.f = f
        self.subgroup = subgroup
        self.S = S
        self.provider = LambdaProvider() if provider is None else provider
        self.oracle_levels = oracle_levels

    @cached_property
    def field(self) -> FieldSpec:
        """Built once per job; main() changes only the lambda provider and
        the oracle levels after parsing."""
        return FieldSpec(self.p, self.f, self.subgroup)


_PRIME_LIMIT = f"is at or above {PRIME_BOUND}, where the primality test is not exact"
_TABLE_RULE = "lambda table must map labels to nonnegative integers"
_LEVELS_RULE = "oracle_levels must be a pair [n0, n1] with n1 > n0 >= 0"


def _is_int(x) -> bool:
    """A JSON integer; JSON true and false are not, though Python's bool is."""
    return isinstance(x, int) and not isinstance(x, bool)


def _valid_table(table) -> bool:
    return isinstance(table, dict) and all(_is_int(v) and v >= 0 for v in table.values())


def _valid_levels(levels) -> bool:
    return (
        isinstance(levels, list)
        and len(levels) == 2
        and all(_is_int(x) and x >= 0 for x in levels)
        and levels[1] > levels[0]
    )


def parse_config(text: str) -> JobConfig:
    """Validate a JSON job document, collecting every violated constraint."""
    violations: List[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level document must be an object"])

    p = raw.get("p")
    p_big = _is_int(p) and p >= PRIME_BOUND
    p_ok = _is_int(p) and p != 2 and not p_big and is_prime(p)
    if p_big:
        violations.append(f"p {_PRIME_LIMIT}")
    elif not p_ok:
        violations.append("p must be an odd prime")
    f = raw.get("f", 1)
    if not _is_int(f) or f < 1:
        violations.append("f must be a positive integer")
        f = 1
    if p_ok and math.gcd(f, p) != 1:
        violations.append("f must be prime to p")
        f = 1
    if p_ok and f * (p - 1) > ENUMERATION_BOUND:
        violations.append(f"the field may have up to f*(p - 1) = {f * (p - 1)} characters, "
                          f"above {ENUMERATION_BOUND}")
    subgroup = raw.get("H", [])
    if not isinstance(subgroup, list) or not all(_is_int(h) for h in subgroup):
        violations.append("H must be a list of integers")
        subgroup = []
    else:
        for h in subgroup:
            if math.gcd(h, f) != 1:
                violations.append(f"H generator {h} is not a unit mod f")
    S = raw.get("S", [])
    if not isinstance(S, list) or not all(_is_int(q) for q in S):
        violations.append("S must be a list of integers")
        S = []
    else:
        if len(set(S)) != len(S):
            violations.append("S entries must be distinct")
        for q in S:
            if q >= PRIME_BOUND:
                violations.append(f"S entry {q} {_PRIME_LIMIT}")
            elif not is_prime(q):
                violations.append(f"S entry {q} is not prime")
        if p_ok and p in S:
            violations.append("S must not contain p")
    lam = raw.get("lambda", {"mode": "table", "table": {}})
    mode = "table"
    table: dict = {}
    if not isinstance(lam, dict):
        violations.append("lambda must be an object")
    else:
        mode = lam.get("mode", "table")
        if not isinstance(mode, str) or mode not in _LAMBDA_MODES:
            violations.append(
                f"lambda mode must be one of {sorted(_LAMBDA_MODES)}"
            )
            mode = "table"
        table = lam.get("table", {})
        if not _valid_table(table):
            violations.append(_TABLE_RULE)
            table = {}
    levels = raw.get("oracle_levels")
    if levels is not None and not _valid_levels(levels):
        violations.append(_LEVELS_RULE)
        levels = None

    if violations:
        raise ConfigError(violations)
    return JobConfig(
        p=p,
        f=f,
        subgroup=tuple(subgroup),
        S=tuple(S),
        provider=LambdaProvider(dict(table), *_LAMBDA_MODES[mode]),
        oracle_levels=tuple(levels) if levels else None,
    )


def _report(job: JobConfig, command: str, **body) -> dict:
    """A report: the schema version, the command and the job's field, then the body."""
    field = {"p": job.p, "f": job.f, "H": list(job.subgroup)}
    return {"schema_version": SCHEMA_VERSION, "command": command, "field": field, **body}


def validate_rank_report(report: dict) -> None:
    """Recompute the rank identity of every record from its own fields."""
    p = report["field"]["p"]
    total = 0
    for rec in report["records"]:
        lam = rec["lambda"]["value"]
        if rec["S_chi"]:
            tame = sum(rec["d_chi"] * p ** rec["m_map"][str(q)] for q in rec["S_chi"])
            expected = lam + tame - rec["P_chi"]
        else:
            expected = lam
        if expected != rec["rank"]:
            raise InvariantViolationError(
                f"rank identity fails for {rec['character']}"
            )
        total += rec["rank"]
    if total != report["total"]:
        raise InvariantViolationError("report total differs from the record sum")


def run_rank(job: JobConfig) -> dict:
    """rank records and total for a job"""
    result = rank_total(job.field, list(job.S), job.provider, job.subgroup)
    report = _report(job, "rank", S=list(result.S), records=[r.to_dict() for r in result.records],
                     total=result.total, conjectural=result.conjectural)
    validate_rank_report(report)
    return report


def _oversized(field: FieldSpec, q: int, n: int) -> Optional[str]:
    """Why the oracle's level-n module for q is too large to build, or None.
    As e_n > n, an n with n + 1 + VALUATION_GUARD_DIGITS digits over the digit
    bound is refused before p^n is formed."""
    where = f"oracle level n1 = {n} for q = {q}: the module"
    if n + 1 + VALUATION_GUARD_DIGITS > ORACLE_DIGIT_BOUND:
        return f"{where} needs at least {n + 1 + VALUATION_GUARD_DIGITS} digits, above {ORACLE_DIGIT_BOUND}"
    data = splitting_count(field, q, n)
    digits = data.p_exponent + VALUATION_GUARD_DIGITS
    if digits > ORACLE_DIGIT_BOUND:
        return f"{where} needs {digits} digits, above {ORACLE_DIGIT_BOUND}"
    d = _local_degree(math.lcm(*unit_group(field.f * field.p).orders), field.p)
    if data.prime_count * d * digits > ORACLE_MODULE_BOUND:
        return (f"{where} has {data.prime_count}*{d} columns of {digits} digits, "
                f"above {ORACLE_MODULE_BOUND} digits")
    return None


def run_oracle(job: JobConfig) -> dict:
    """brute-force verification grid"""
    field = job.field
    given = job.oracle_levels
    violations = [] if job.S else ["oracle needs at least one prime in S"]
    if field.group_order > ORACLE_CHARACTER_BOUND:  # refused before any level is read
        raise ConfigError(violations + [
            f"oracle on a field of {field.group_order} characters, above {ORACLE_CHARACTER_BOUND}"])
    # below its stabilization level a prime still splits between levels, and
    # chi-quotient growth there does not measure the rank
    stable = {q: stabilization_level(field, q) for q in sorted(job.S)}
    levels = {q: given or (s, s + 1) for q, s in stable.items()}
    violations += [f"oracle level n0 = {n0} is below the stabilization level {stable[q]} of q = {q}"
                   for q, (n0, _) in levels.items() if n0 < stable[q]]
    violations += [v for q, (_, n1) in levels.items() if (v := _oversized(field, q, n1))]
    if violations:
        raise ConfigError(violations)
    reps = [cl[0] for cl in field_characters(field)[1]]
    rows = []
    for q, (n0, n1) in levels.items():
        lo, hi = residue_module(field, q, n0), residue_module(field, q, n1)
        for chi in reps:
            in_s_chi = admissible(chi, q)
            expected = chi.d_chi * field.p ** m_index(q, field.p) if in_s_chi else 0
            x0, x1, estimated = quotient_growth(lo, hi, chi)
            rows.append(
                {
                    "q": q,
                    "levels": [n0, n1],
                    "character": chi.label(),
                    "admissible": in_s_chi,
                    "exponents": [x0, x1],
                    "expected": expected,
                    "estimated": estimated,
                    "pass": estimated == expected,
                }
            )
    return _report(job, "oracle", rows=rows, all_pass=all(row["pass"] for row in rows))


def run_lambda(job: JobConfig) -> dict:
    """Stickelberger lambda table"""
    field = job.field
    rows = []
    om = omega(field.p)
    for chi in (cl[0] for cl in field_characters(field)[1]):
        if not chi.is_odd or chi == om:
            continue
        res = lambda_minus(chi)
        rows.append(
            {
                "character": chi.label(),
                "lambda": res.lambda_,
                "mu_zero": True,  # mu = 0 for abelian fields (Ferrero-Washington)
                "levels_used": list(res.levels_used),
            }
        )
    return _report(job, "lambda", rows=rows)


def run_chars(job: JobConfig) -> dict:
    """character inventory"""
    chars, classes = field_characters(job.field)
    return _report(
        job,
        "chars",
        characters=[chi.to_dict() for chi in chars],
        classes=[[chi.label() for chi in cl] for cl in classes],
    )


# each runner's docstring is its subcommand's help
_RUNNERS = {"rank": run_rank, "oracle": run_oracle, "lambda": run_lambda, "chars": run_chars}

# the typed errors other than ConfigError: exit code and stderr prefix
_EXITS = (
    (LambdaUnavailableError, EXIT_LAMBDA, "lambda unavailable"),
    (OracleInconsistencyError, EXIT_INCONSISTENT, "oracle inconsistency"),
    (PrecisionError, EXIT_PRECISION, "level bound reached"),
    (InvariantViolationError, EXIT_INVARIANT, "internal invariant violated"),
)


def run(job: JobConfig, command: str) -> dict:
    """Dispatch a validated job; raises the typed errors mapped to exit codes
    by main()."""
    if command not in _RUNNERS:
        raise ValueError(f"unknown command {command}")
    return _RUNNERS[command](job)


def _read(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {what}: {exc}"]) from exc


def _parse_table(text: str) -> dict:
    """A --lambda-table file, held to the rule of the config's lambda.table."""
    try:
        table = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed lambda table: {exc}"]) from exc
    if not _valid_table(table):
        raise ConfigError([_TABLE_RULE])
    return table


def _parse_levels(text: str) -> tuple:
    """--levels n0,n1, held to the rule of the config's oracle_levels."""
    try:
        levels = [int(x) for x in text.split(",")]
    except ValueError:
        levels = None
    if not _valid_levels(levels):
        raise ConfigError([_LEVELS_RULE])
    return tuple(levels)


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError([f"cannot write report: {exc}"]) from exc
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError as exc:
            # close stdout and drop what it still buffers, so that the
            # interpreter's flush at exit does not fail a second time
            try:
                sys.stdout.close()
            except BrokenPipeError:
                pass
            raise ConfigError([f"cannot write report: {exc}"]) from exc


def main(argv: Optional[list] = None) -> int:
    import argparse  # here, so that workers and library users never load it
    parser = argparse.ArgumentParser(
        prog="tamerank",
        description="Ranks of chi-quotients of tamely ramified Iwasawa modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, runner in _RUNNERS.items():
        commands[command] = sub.add_parser(command, help=runner.__doc__)
        commands[command].add_argument("--config", required=True)
        commands[command].add_argument("--out", default=None)
    commands["rank"].add_argument("--assume-greenberg", action="store_true")
    commands["rank"].add_argument("--lambda-table", default=None)
    commands["oracle"].add_argument("--levels", default=None, help="n0,n1")

    args = parser.parse_args(argv)
    try:
        job = parse_config(_read(args.config, "config"))
        if args.command == "rank":
            job.provider.allow_greenberg |= args.assume_greenberg
            if args.lambda_table:
                job.provider.table.update(_parse_table(_read(args.lambda_table, "lambda table")))
        if args.command == "oracle" and args.levels:
            job.oracle_levels = _parse_levels(args.levels)
        report = run(job, args.command)
        _emit(report, args.out)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    except TameRankError as exc:
        for error, code, prefix in _EXITS:
            if isinstance(exc, error):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise

    if args.command == "oracle" and not report["all_pass"]:
        return EXIT_INCONSISTENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
