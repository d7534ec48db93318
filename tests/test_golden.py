"""Byte-exact CLI reports, pinned before characters moved to integer
exponent vectors, and the benchmark's seed-0 reports (and a second seed's
on three workloads) against the digests it pins; any change to a label, a
record or a number shows here."""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import BENCHMARKS, load_benchmark_module
from tamerank.cli import EXIT_OK, main, parse_config, run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    # the paper's Example 6.5: Q(mu_5), S = {7, 11}
    "example_6_5": (
        "rank",
        {"p": 5, "f": 1, "S": [7, 11], "lambda": {"mode": "table", "table": {"all": 0}}},
    ),
    # the paper's Example 6.6: Q(sqrt 2, mu_3), Greenberg for the even side
    "example_6_6": (
        "rank",
        {
            "p": 3,
            "f": 8,
            "H": [7],
            "S": [5, 7, 13],
            "lambda": {"mode": "auto", "table": {"omega^1": 0}},
        },
    ),
    "rank_13_105": (
        "rank",
        {
            "p": 13,
            "f": 105,
            "H": [2],
            "S": [2, 3, 5, 7, 53, 79],
            "lambda": {"mode": "table", "table": {"all": 0}},
        },
    ),
    # a 3^2 block and a 2^3 block in the conductor
    "chars_5_72": ("chars", {"p": 5, "f": 72}),
    "oracle_5_7": ("oracle", {"p": 5, "f": 7, "S": [2, 11]}),
    "lambda_5_7": ("lambda", {"p": 5, "f": 7}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    command, doc = CASES[name]
    config = tmp_path / "job.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


# a second pinned seed for the workloads whose S entries reach past psi_2:
# seed 6 draws other primes for S, so it tests the primality test's base
# selection on other numbers; 12 of its rank-sweep entries take three bases,
# and 6 of its oracle-grid entries four.  lambda-minus replays every pinned
# seed, all 65 reports of the Stickelberger kernel the digests hold
EXTRA_SEEDS = {"rank-sweep": (6,), "lambda-minus": tuple(range(1, 11)), "oracle-grid": (6,)}


@pytest.mark.parametrize("workload", ["rank-sweep", "lambda-minus", "oracle-grid", "chars-cyclic"])
def test_benchmark_reports_match_their_pinned_digests(workload, monkeypatch):
    # the seed-0 jobs of each benchmark workload, and those of EXTRA_SEEDS,
    # run as benchmarks/worker.py runs them (parse_config, run, json.dumps
    # with indent 2), give the reports benchmarks/digests.json pins, under the
    # worker's key (the first 24 hex digits of the SHA-256 of command,
    # newline, document) and digest (the SHA-256 of the report text and a
    # newline)
    workloads = load_benchmark_module("workloads", monkeypatch)
    pins = json.loads((BENCHMARKS / "digests.json").read_text())
    seeds = (0,) + EXTRA_SEEDS.get(workload, ())
    assert workload in workloads.WORKLOADS and set(seeds) <= set(pins["seeds"])
    pinned = pins["reports"][workload]
    for seed in seeds:
        for command, doc in workloads.generate(workload, seed):
            key = hashlib.sha256(f"{command}\n{doc}".encode()).hexdigest()[:24]
            text = json.dumps(run(parse_config(doc), command), indent=2)
            assert hashlib.sha256((text + "\n").encode()).hexdigest() == pinned[key], (seed, command, doc)
