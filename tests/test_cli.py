import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamerank.cli
import tamerank.rank
from tamerank.cli import (
    EXIT_CONFIG,
    EXIT_INCONSISTENT,
    EXIT_INVARIANT,
    EXIT_LAMBDA,
    EXIT_OK,
    EXIT_PRECISION,
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
    PrecisionError,
)

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
    assert job.lambda_table == {"all": 0}
    assert job.field.group_order == 4


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


def test_main_unwritable_out_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_6_5)
    out = str(tmp_path / "missing" / "report.json")
    assert main(["rank", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "cannot write report" in capsys.readouterr().err


def test_main_maps_internal_errors(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, EXAMPLE_6_5)
    monkeypatch.setattr(tamerank.rank, "lcm_degree", lambda polys: 10 ** 6)
    assert main(["rank", "--config", cfg]) == EXIT_INVARIANT
    assert "tame contribution went negative" in capsys.readouterr().err

    def short(chi, precision):
        raise PrecisionError("unstable")

    monkeypatch.setattr(tamerank.cli, "lambda_minus", short)
    assert main(["lambda", "--config", cfg]) == EXIT_PRECISION
    assert "unstable" in capsys.readouterr().err


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
