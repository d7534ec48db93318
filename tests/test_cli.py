import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamerank.cli
import tamerank.rank
import tamerank.stickelberger
from tamerank.cli import (
    EXIT_CONFIG,
    EXIT_INCONSISTENT,
    EXIT_INVARIANT,
    EXIT_LAMBDA,
    EXIT_OK,
    EXIT_PRECISION,
    _oversized,
    main,
    parse_config,
    run,
    run_rank,
    validate_rank_report,
)
from tamerank.errors import (
    ConfigError,
    InvariantViolationError,
    LambdaUnavailableError,
    OracleInconsistencyError,
    PrecisionError,
    TameRankError,
)
from tamerank.stickelberger import StickelbergerSeries

from helpers import load_benchmark_module
from tamerank.arith import unit_group
from tamerank.characters import FieldSpec
from tamerank.frobenius import stabilization_level

EXAMPLE_6_5 = {
    "p": 5,
    "f": 1,
    "S": [7, 11],
    "lambda": {"mode": "table", "table": {"all": 0}},
}


def write_config(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_config_valid():
    job = parse_config(json.dumps(EXAMPLE_6_5))
    assert job.p == 5 and job.S == (7, 11)
    assert job.provider.table == {"all": 0}
    assert job.field.group_order == 4
    assert job.field is job.field


def test_parse_config_rejects_p_in_s():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"p": 3, "S": [3, 7]}))
    assert "S must not contain p" in exc.value.violations


def test_parse_config_rejects_bad_f():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"p": 3, "f": 6, "S": [5]}))
    assert any("prime to p" in v for v in exc.value.violations)


def test_parse_config_collects_all_violations():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"p": 4, "S": [6, 6], "lambda": {"mode": "nope"}}))
    assert len(exc.value.violations) >= 3


@pytest.mark.parametrize("doc", [{"p": 4, "f": 9}, {"p": "x", "f": 6, "S": [3]}])
def test_parse_config_skips_p_checks_without_p(doc):
    # with no valid p there is nothing for f or S to be checked against
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.violations == ["p must be an odd prime"]


def test_parse_config_malformed():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_run_rank_example_6_5():
    job = parse_config(json.dumps(EXAMPLE_6_5))
    report = run(job, "rank")
    assert report["total"] == 6
    assert [r["rank"] for r in report["records"]] == [0, 5, 0, 1]
    assert report["records"][1]["m_map"] == {"7": 1, "11": 0}
    assert not report["conjectural"]


def test_run_rank_missing_lambda():
    job = parse_config(json.dumps({"p": 5, "S": [7, 11]}))
    with pytest.raises(LambdaUnavailableError):
        run(job, "rank")


def test_report_determinism(tmp_path):
    job = parse_config(json.dumps(EXAMPLE_6_5))
    a = json.dumps(run(job, "rank"), indent=2)
    b = json.dumps(run(job, "rank"), indent=2)
    assert a == b


def test_validate_rank_report_catches_tampering():
    job = parse_config(json.dumps(EXAMPLE_6_5))
    report = run_rank(job)
    report["records"][1]["rank"] += 1
    with pytest.raises(InvariantViolationError):
        validate_rank_report(report)


def test_run_oracle_small():
    job = parse_config(json.dumps({"p": 3, "f": 1, "S": [5, 7]}))
    report = run(job, "oracle")
    assert report["all_pass"]
    rows = {(r["q"], r["character"]): r for r in report["rows"]}
    assert rows[(7, "eps")]["expected"] == 1
    assert rows[(5, "eps")]["expected"] == 0
    assert rows[(7, "eps")]["exponents"] == [1, 2]
    assert all(r["estimated"] == r["expected"] for r in report["rows"])


def test_run_lambda():
    job = parse_config(json.dumps({"p": 5, "f": 1, "S": []}))
    report = run(job, "lambda")
    assert report["rows"] == [
        {"character": "omega^3", "lambda": 0, "mu_zero": True, "levels_used": [1, 2]}
    ]


def test_run_chars():
    job = parse_config(json.dumps({"p": 5, "f": 1, "S": []}))
    report = run(job, "chars")
    assert [c["label"] for c in report["characters"]] == [
        "eps",
        "omega^1",
        "omega^2",
        "omega^3",
    ]
    assert report["classes"] == [["eps"], ["omega^1"], ["omega^2"], ["omega^3"]]


def test_main_rank_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_6_5)
    code = main(["rank", "--config", cfg])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["total"] == 6


def test_main_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, {"p": 3, "S": [3, 7]}, "bad.json")
    assert main(["rank", "--config", bad]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "S must not contain p" in err

    # even nontrivial character, no table, no greenberg flag
    nolam = write_config(tmp_path, {"p": 5, "S": [7, 11]}, "nolam.json")
    assert main(["rank", "--config", nolam]) == EXIT_LAMBDA

    # the greenberg flag plus a table entry for omega unblocks the same job
    tbl = tmp_path / "table.json"
    tbl.write_text(json.dumps({"omega^1": 0, "omega^3": 0}))
    assert (
        main(
            [
                "rank",
                "--config",
                nolam,
                "--assume-greenberg",
                "--lambda-table",
                str(tbl),
            ]
        )
        == EXIT_OK
    )
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 6 and report["conjectural"]


@pytest.mark.parametrize(
    "p, f, S",
    # q = 1 mod f p^2: every character is admissible at q, and the dense
    # r * d presentation of these modules is out of reach
    [(7, 13, [2549, 2]), (5, 21, [1051, 2]), (3, 35, [631, 2])],
)
def test_run_oracle_larger_fields(p, f, S):
    report = run(parse_config(json.dumps({"p": p, "f": f, "S": S})), "oracle")
    assert report["all_pass"]


def test_main_oracle_and_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {"p": 3, "f": 1, "S": [7]})
    out = tmp_path / "report.json"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["all_pass"]
    assert main(["oracle", "--config", cfg, "--levels", "1,2"]) == EXIT_OK
    capsys.readouterr()


def test_main_missing_config(tmp_path):
    assert main(["rank", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_stickelberger_mode_in_config():
    job = parse_config(
        json.dumps(
            {
                "p": 5,
                "f": 1,
                "S": [7, 11],
                "lambda": {
                    "mode": "stickelberger-odd",
                    "table": {"omega^1": 0, "omega^2": 0},
                },
            }
        )
    )
    report = run(job, "rank")
    assert report["total"] == 6
    provs = {r["character"]: r["lambda"]["provenance"] for r in report["records"]}
    assert provs["omega^3"] == "stickelberger-computed"
    assert provs["eps"] == "unconditional-zero"
    assert provs["omega^1"] == "input-table"


LEVELS_RULE = "config error: oracle_levels must be a pair [n0, n1] with n1 > n0 >= 0"
TABLE_RULE = "config error: lambda table must map labels to nonnegative integers"


@pytest.mark.parametrize("levels", ["3,1", "0,0", "-1,2", "1", "a,b"])
def test_main_oracle_rejects_bad_levels(tmp_path, capsys, levels):
    cfg = write_config(tmp_path, {"p": 3, "f": 1, "S": [7]})
    assert main(["oracle", "--config", cfg, f"--levels={levels}"]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == LEVELS_RULE


# both q stabilize at level 1, so n0 = 0 is a configuration error whether it
# comes from the job's oracle_levels or from --levels
@pytest.mark.parametrize(
    "doc, flags, q",
    [
        ({"p": 5, "S": [7], "oracle_levels": [0, 1]}, [], 7),
        ({"p": 3, "S": [19]}, ["--levels=0,2"], 19),
    ],
)
def test_main_oracle_rejects_levels_below_stabilization(tmp_path, capsys, doc, flags, q):
    cfg = write_config(tmp_path, doc)
    assert main(["oracle", "--config", cfg] + flags) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        f"config error: oracle level n0 = 0 is below the stabilization level 1 of q = {q}"
    )


def test_run_oracle_levels_spanning_two_levels_pass():
    job = parse_config(json.dumps({"p": 3, "S": [19], "oracle_levels": [1, 3]}))
    report = run(job, "oracle")
    assert report["all_pass"] and {tuple(r["levels"]) for r in report["rows"]} == {(1, 3)}


@pytest.mark.parametrize(
    "doc, rows",
    [({"p": 3, "S": [7], "oracle_levels": [1, 9]}, 2),
     ({"p": 5, "f": 7, "S": [7, 11], "oracle_levels": [1, 5]}, 32)],
)
def test_main_oracle_wide_level_spans_pass(tmp_path, capsys, doc, rows):
    # growth read over several levels, on level groups of up to 75000 elements
    cfg = write_config(tmp_path, doc)
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(report["rows"]) == rows and report["all_pass"]
    assert all(r["pass"] and r["levels"] == doc["oracle_levels"] for r in report["rows"])


@pytest.mark.parametrize(
    "table",
    [[1, 2], {"all": 0, "omega^1": "x"}, {"all": -5}, {"all": 1.5}, {"all": True}],
)
def test_main_lambda_table_file_is_validated(tmp_path, capsys, table):
    cfg = write_config(tmp_path, EXAMPLE_6_5)
    tbl = write_config(tmp_path, table, "table.json")
    assert main(["rank", "--config", cfg, "--lambda-table", tbl]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == TABLE_RULE


def test_parse_config_refuses_true_as_integer():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"p": 5, "lambda": {"table": {"all": True}}}))
    assert exc.value.violations == [TABLE_RULE.removeprefix("config error: ")]


@pytest.mark.parametrize("table", [{"bogus": 3, "all": 0}, {"bogus": 3}])
def test_main_rejects_unknown_table_labels(tmp_path, capsys, table):
    doc = {"p": 5, "S": [7, 11], "lambda": {"mode": "table", "table": table}}
    assert main(["rank", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert "'bogus'" in capsys.readouterr().err


def test_main_unknown_table_label_names_the_field(tmp_path, capsys):
    doc = {"p": 5, "f": 11, "H": [14], "S": [7]}
    cfg = write_config(tmp_path, doc)
    tbl = write_config(tmp_path, {"omega^9": 1, "all": 0}, "table.json")
    assert main(["rank", "--config", cfg, "--lambda-table", tbl]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        "config error: lambda table label 'omega^9' is neither 'all' nor a class"
        " representative of the field p = 5, f = 11, H = [3]"
    )


def test_main_unknown_table_label_names_h_as_the_job_spelt_it(tmp_path, capsys):
    # H = {1, 3, 9} mod 13 spelt by 9, not by its least generator 3
    cfg = write_config(tmp_path, {"p": 5, "f": 13, "H": [9], "S": [7]})
    tbl = write_config(tmp_path, {"omega^9": 1, "all": 0}, "table.json")
    assert main(["rank", "--config", cfg, "--lambda-table", tbl]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().endswith("of the field p = 5, f = 13, H = [9]")


def test_main_unwritable_out_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_6_5)
    out = str(tmp_path / "missing" / "report.json")
    assert main(["rank", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "cannot write report" in capsys.readouterr().err


# with stdout buffered, a report that fits the buffer fails at the flush and
# a larger one inside the write; unbuffered, both fail inside the write
@pytest.mark.parametrize("p", [5, 211])
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_main_closed_stdout_is_a_config_error(tmp_path, p, unbuffered):
    # the reader of stdout has gone, as in `tamerank chars ... | head -c 10`
    cfg = write_config(tmp_path, {"p": p})
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(tamerank.cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "tamerank", "chars", "--config", cfg],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.splitlines() == ["config error: cannot write report: [Errno 32] Broken pipe"]


def test_main_maps_internal_errors(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, EXAMPLE_6_5)
    monkeypatch.setattr(tamerank.rank, "lcm_degree", lambda p, pa, pairs: 10 ** 6)
    assert main(["rank", "--config", cfg]) == EXIT_INVARIANT
    assert "tame contribution went negative" in capsys.readouterr().err

    def short(chi):
        raise PrecisionError("unstable")

    monkeypatch.setattr(tamerank.cli, "lambda_minus", short)
    assert main(["lambda", "--config", cfg]) == EXIT_PRECISION
    assert "unstable" in capsys.readouterr().err


# every typed error, its exit code and its stderr line for the message "m"
ERROR_EXITS = {
    ConfigError: (EXIT_CONFIG, "config error: m"),
    LambdaUnavailableError: (EXIT_LAMBDA, "lambda unavailable: lambda unavailable for character m"),
    OracleInconsistencyError: (EXIT_INCONSISTENT, "oracle inconsistency: m"),
    PrecisionError: (EXIT_PRECISION, "level bound reached: m"),
    InvariantViolationError: (EXIT_INVARIANT, "internal invariant violated: m"),
}


def test_every_error_class_has_one_exit_code(tmp_path, capsys, monkeypatch):
    assert set(TameRankError.__subclasses__()) == set(ERROR_EXITS)
    assert len({code for code, _ in ERROR_EXITS.values()}) == len(ERROR_EXITS)
    cfg = write_config(tmp_path, EXAMPLE_6_5)
    for error, (code, line) in ERROR_EXITS.items():
        def fail(job, command, error=error):
            raise error(["m"] if error is ConfigError else "m")

        monkeypatch.setattr(tamerank.cli, "run", fail)
        for command in ("rank", "oracle", "lambda", "chars"):
            assert main([command, "--config", cfg]) == code, (error, command)
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", line + "\n"), (error, command)


def test_runner_table_keys_are_the_subcommands(capsys):
    # argparse lists the subcommands main accepts when it refuses another,
    # and exits 2 on that usage error
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    choices = capsys.readouterr().err.split("choose from ")[1].split(")")[0]
    assert [c.strip(" '") for c in choices.split(",")] == list(tamerank.cli._RUNNERS)
    with pytest.raises(ValueError, match="unknown command bogus"):
        run(parse_config(json.dumps(EXAMPLE_6_5)), "bogus")


DOCUMENTED_EXITS = {
    EXIT_OK,
    EXIT_CONFIG,
    EXIT_LAMBDA,
    EXIT_INCONSISTENT,
    EXIT_PRECISION,
    EXIT_INVARIANT,
}

JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def mostly(valid):
    """Values from `valid`, and one time in six any JSON value in their place."""
    return st.sampled_from([valid] * 5 + [JSON_ANY]).flatmap(lambda strategy: strategy)


# p <= 7, f <= 12, |S| <= 3 and levels <= 2 keep every example near 1 s or below
TABLES = st.sampled_from(
    [{"all": 0}, {"all": 1, "eps": 0}, {"omega^1": 0}, {"omega^1": 2, "all": 0}, {}, {"bogus": 3}]
)
MODES = st.sampled_from(["table", "greenberg-even", "stickelberger-odd", "auto"])
LAMBDA = st.fixed_dictionaries(
    {"table": mostly(TABLES)},
    optional={"mode": mostly(MODES)},
)
JOBS = st.fixed_dictionaries(
    {"p": mostly(st.sampled_from([3, 5, 7])), "lambda": mostly(LAMBDA)},
    optional={
        "f": mostly(st.integers(1, 12)),
        "H": mostly(st.lists(st.integers(-2, 12), max_size=2)),
        "S": mostly(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]), max_size=3)),
        "oracle_levels": mostly(st.sampled_from([[0, 1], [1, 2], [0, 2]])),
        "precision": mostly(st.integers(1, 8)),
    },
)


@settings(max_examples=120, deadline=None, database=None)
@given(command=st.sampled_from(["rank", "oracle", "lambda", "chars"]), doc=mostly(JOBS))
def test_main_returns_a_documented_code(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "job.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        code = main([command, "--config", config, "--out", os.path.join(tmp, "report.json")])
    assert code in DOCUMENTED_EXITS


# --assume-greenberg adds the Greenberg half to a job's lambda mode
WITH_GREENBERG = {
    "table": "greenberg-even",
    "greenberg-even": "greenberg-even",
    "stickelberger-odd": "auto",
    "auto": "auto",
}


def outcome(tmp_path, command, doc, flags, name):
    """Exit code and report bytes of one main() run, None for no report."""
    out = tmp_path / f"{name}.report.json"
    code = main([command, "--config", write_config(tmp_path, doc, f"{name}.json"), "--out", str(out)] + flags)
    return code, out.read_bytes() if out.exists() else None


# with the first table omega^3 needs Stickelberger; the second covers both
# odd characters, so only the even omega^2 waits on Greenberg
@pytest.mark.parametrize("table", [{"omega^1": 0}, {"omega^1": 0, "omega^3": 0}])
@pytest.mark.parametrize("mode", sorted(WITH_GREENBERG))
def test_assume_greenberg_equals_the_greenberg_mode(tmp_path, capsys, mode, table):
    doc = {**EXAMPLE_6_5, "lambda": {"mode": mode, "table": table}}
    flagged = outcome(tmp_path, "rank", doc, ["--assume-greenberg"], "flagged")
    doc["lambda"] = {"mode": WITH_GREENBERG[mode], "table": table}
    assert flagged == outcome(tmp_path, "rank", doc, [], "moded")
    capsys.readouterr()


def test_lambda_table_file_overrides_the_config_entry(tmp_path):
    doc = {**EXAMPLE_6_5, "lambda": {"mode": "table", "table": {"all": 0, "omega^3": 0}}}
    tbl = write_config(tmp_path, {"omega^3": 2}, "table.json")
    code, text = outcome(tmp_path, "rank", doc, ["--lambda-table", tbl], "override")
    assert code == EXIT_OK
    records = {r["character"]: r for r in json.loads(text)["records"]}
    assert records["omega^3"]["lambda"] == {"value": 2, "provenance": "input-table", "conjectural": False}
    assert records["omega^1"]["lambda"]["value"] == 0


def test_main_lambda_fold_mismatch_is_an_invariant_violation(tmp_path, capsys, monkeypatch):
    fold = StickelbergerSeries.folded_columns

    def perturbed(series, lower_level):
        columns = fold(series, lower_level)
        columns[0] = [columns[0][0] + 1] + columns[0][1:]
        return columns

    monkeypatch.setattr(StickelbergerSeries, "folded_columns", perturbed)
    assert main(["lambda", "--config", write_config(tmp_path, {"p": 5})]) == EXIT_INVARIANT
    assert "series of omega^3 does not fold onto level 1" in capsys.readouterr().err


def test_main_lambda_out_of_levels(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tamerank.stickelberger, "MAX_LEVEL", 1)
    assert main(["lambda", "--config", write_config(tmp_path, {"p": 5})]) == EXIT_PRECISION
    err = capsys.readouterr().err
    assert "MAX_LEVEL = 1" in err and "precision" not in err


# a job's "precision" is an undefined key like any other
@pytest.mark.parametrize("precision", [1, 16, "x"])
@pytest.mark.parametrize(
    "command, doc",
    [
        ("lambda", {"p": 5, "f": 7}),
        ("rank", {"p": 5, "f": 7, "S": [29, 11], "lambda": {"mode": "auto", "table": {"omega^1": 0}}}),
    ],
)
def test_precision_key_is_ignored(tmp_path, command, doc, precision):
    plain = outcome(tmp_path, command, doc, [], "plain")
    assert plain[0] == EXIT_OK
    assert outcome(tmp_path, command, {**doc, "precision": precision}, [], "precision") == plain


def test_oracle_prime_beyond_the_stabilization_bound(tmp_path, capsys):
    # m_q = 16 for q = 258280327 at p = 3, so its levels are (16, 17), where
    # it splits into 2 * 3^16 primes: the size bound refuses that module; the
    # rank formula needs no level
    cfg = write_config(tmp_path, {"p": 3, "S": [258280327], "lambda": {"table": {"all": 0}}})
    t0 = time.monotonic()
    assert main(["oracle", "--config", cfg]) == EXIT_CONFIG
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err.strip() == (
        "config error: oracle level n1 = 17 for q = 258280327: the module has 86093442*1 columns of 22 digits,"
        " above 100000 digits"
    )
    assert main(["rank", "--config", cfg]) == EXIT_OK
    capsys.readouterr()


def test_oracle_with_an_empty_s_is_a_config_error(tmp_path, capsys):
    # with no prime there is no row, and an all_pass over no rows checks nothing
    cfg = write_config(tmp_path, {"p": 5, "S": []})
    assert main(["oracle", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == "config error: oracle needs at least one prime in S"


@pytest.mark.parametrize(
    "doc, flags, expected",
    [
        # e_n > n, so n1 = 196 needs at least 201 digits, the first level past
        # the digit bound; n1 = 10^9 is refused without forming p^n1
        ({"p": 3, "S": [7], "oracle_levels": [1, 196]}, [],
         ["oracle level n1 = 196 for q = 7: the module needs at least 201 digits, above 200"]),
        ({"p": 3, "S": [7]}, ["--levels", "1,1000000000"],
         ["oracle level n1 = 1000000000 for q = 7: the module needs at least 1000000005 digits, above 200"]),
        # every violation is named
        ({"p": 5, "f": 21, "H": [8], "S": [2, 7], "oracle_levels": [0, 196]}, [],
         ["oracle level n0 = 0 is below the stabilization level 1 of q = 7",
          "oracle level n1 = 196 for q = 2: the module needs at least 201 digits, above 200",
          "oracle level n1 = 196 for q = 7: the module needs at least 201 digits, above 200"]),
    ],
)
def test_oracle_levels_are_bounded_before_a_module_is_built(tmp_path, capsys, doc, flags, expected):
    cfg = write_config(tmp_path, doc)
    t0 = time.monotonic()
    assert main(["oracle", "--config", cfg] + flags) == EXIT_CONFIG
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err.splitlines() == [f"config error: {v}" for v in expected]


def test_oracle_digit_bound_reads_the_exponent_below_stabilization(monkeypatch):
    # below its stabilization level 16, q = 258280327 has e_10 = 17 > 10 + 1:
    # the lower bound n1 + 1 passes a digit bound of 20, its exact 21 digits not
    monkeypatch.setattr(tamerank.cli, "ORACLE_DIGIT_BOUND", 20)
    assert _oversized(FieldSpec(3, 1), 258280327, 10) == (
        "oracle level n1 = 10 for q = 258280327: the module needs 21 digits, above 20")


@pytest.mark.parametrize(
    "doc, flags, rows",
    [
        # each of these level groups has more elements than the 100000 of the
        # order bound this module bound replaced: 9565938, 6 * 4 * 5^11 and
        # 4 * 5^11, 12 * 13^10, and 486720 for q = 677 at its n1 = 2
        ({"p": 3, "S": [7], "oracle_levels": [1, 14]}, [], 2),
        ({"p": 5, "f": 21, "H": [8], "S": [2, 7], "oracle_levels": [1, 11]}, [], 32),
        ({"p": 13, "S": [3]}, ["--levels", "1,10"], 12),
        ({"p": 13, "f": 385, "S": [677]}, [], 1152),
    ],
)
def test_oracle_answers_past_its_level_group(tmp_path, doc, flags, rows):
    code, text = outcome(tmp_path, "oracle", {**doc, "lambda": {"table": {"all": 0}}}, flags, "oracle")
    assert code == EXIT_OK
    report = json.loads(text)
    assert len(report["rows"]) == rows and all(row["pass"] for row in report["rows"])


def test_oracle_ten_levels_up_is_small():
    # 13^10 levels up the module still has 4 cosets; the cold unit group of
    # (Z/13^11)^x is built inside the bound, its discrete logs included
    unit_group.cache_clear()
    tracemalloc.start()
    t0 = time.monotonic()
    try:
        report = run(parse_config('{"p": 13, "S": [3], "oracle_levels": [1, 10]}'), "oracle")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - t0 < 1.0 and peak < 50 * 2 ** 20
    assert report["all_pass"] and len(report["rows"]) == 12


@pytest.mark.parametrize("S, expected", [
    ([2], ["oracle on a field of 20010 characters, above 20000"]),
    ([], ["oracle needs at least one prime in S", "oracle on a field of 20010 characters, above 20000"]),
])
def test_oracle_refuses_a_field_of_too_many_characters(tmp_path, capsys, S, expected):
    # (Z/20011)^x has 20010 characters, and q = 2 splits into 3 primes at
    # level 1: a module of 3 cosets, which does not bound the 20010 rows
    cfg = write_config(tmp_path, {"p": 20011, "S": S})
    t0 = time.monotonic()
    assert main(["oracle", "--config", cfg]) == EXIT_CONFIG
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err.splitlines() == [f"config error: {v}" for v in expected]


@pytest.mark.parametrize("command, doc, bound", [
    ("chars", {"p": 3, "f": 1000003}, 2000006),
    ("chars", {"p": 3, "f": 10 ** 18 + 3}, 2 * 10 ** 18 + 6),
    ("rank", {"p": 3, "f": 10 ** 18 + 3, "S": [7]}, 2 * 10 ** 18 + 6),
])
def test_main_refuses_an_oversized_enumeration_before_factoring(tmp_path, capsys, command, doc, bound):
    # f*(p - 1) bounds |G|; it is checked in parse_config, before f*p is
    # factored (trial division on 10^18 + 3 would not finish)
    cfg = write_config(tmp_path, {**doc, "lambda": {"table": {"all": 0}}})
    t0 = time.monotonic()
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err.strip() == (
        f"config error: the field may have up to f*(p - 1) = {bound} characters, above 1000000")


def test_enumeration_bound_admits_the_benchmark_jobs(monkeypatch):
    # parse_config raises on a job over the bound; the largest is a chars
    # job with p below 1280
    workloads = load_benchmark_module("workloads", monkeypatch)
    for name in workloads.WORKLOADS:
        for _, doc in workloads.generate(name, 0):
            job = parse_config(doc)
            assert job.f * (job.p - 1) < 1280


def test_oracle_bound_admits_the_benchmark_and_test_jobs(monkeypatch):
    # the oracle-grid jobs (any seed gives the same modules) and the largest
    # module the fuzz test of main can draw: p = 7, f = 11, q = 19 at its
    # default n1 = 3, 98 * 4 columns of 8 digits
    workloads = load_benchmark_module("workloads", monkeypatch)
    for _, doc in workloads.generate("oracle-grid", 0):
        job = parse_config(doc)
        assert job.field.group_order <= tamerank.cli.ORACLE_CHARACTER_BOUND
        for q in job.S:
            n1 = job.oracle_levels[1] if job.oracle_levels else stabilization_level(job.field, q) + 1
            assert _oversized(job.field, q, n1) is None, doc
    assert stabilization_level(FieldSpec(7, 11), 19) + 1 == 3
    assert _oversized(FieldSpec(7, 11), 19, 3) is None


# lambda >= p = 3 on these fields: the walk reads it from the level-2 series
FIELD_239 = {"p": 3, "f": 239, "H": [49]}


@pytest.mark.parametrize("doc, lam", [(FIELD_239, 6), ({"p": 3, "f": 311, "H": [289]}, 4)])
def test_main_lambda_at_or_above_p(tmp_path, doc, lam):
    code, text = outcome(tmp_path, "lambda", doc, [], "lambda")
    assert code == EXIT_OK
    [row] = json.loads(text)["rows"]
    assert (row["lambda"], row["mu_zero"], row["levels_used"]) == (lam, True, [2, 3])


def test_main_rank_auto_with_lambda_at_or_above_p(tmp_path):
    doc = dict(FIELD_239, S=[2], **{"lambda": {"mode": "auto", "table": {"omega^1": 0}}})
    code, text = outcome(tmp_path, "rank", doc, [], "rank")
    assert code == EXIT_OK
    records = {r["character"]: r for r in json.loads(text)["records"]}
    assert records["chi239[1of2]"]["lambda"]["value"] == 6


def test_main_lambda_out_of_levels_on_real_data(tmp_path, capsys, monkeypatch):
    # lambda = 6 >= 3^1: with MAX_LEVEL = 2 only level 1 is read
    monkeypatch.setattr(tamerank.stickelberger, "MAX_LEVEL", 2)
    assert main(["lambda", "--config", write_config(tmp_path, FIELD_239)]) == EXIT_PRECISION
    err = capsys.readouterr().err
    assert "MAX_LEVEL = 2, so lambda >= 3^1" in err


# psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on every base 2..37
PSI_12 = 318665857834031151167461


@pytest.mark.parametrize("command", ["rank", "oracle"])
def test_main_rejects_s_entry_at_the_primality_bound(tmp_path, capsys, command):
    doc = {"p": 5, "S": [PSI_12], "lambda": {"mode": "table", "table": {"all": 0}}}
    assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        f"config error: S entry {PSI_12} is at or above {PSI_12}, where the primality test is not exact"
    )


def test_parse_config_rejects_p_at_the_primality_bound():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"p": PSI_12 + 2, "f": 3}))
    assert exc.value.violations == [f"p is at or above {PSI_12}, where the primality test is not exact"]
