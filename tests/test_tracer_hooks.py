"""The benchmark tracer's hooks run against the package: they read a series'
`precision` (a class attribute) and its positional (chi, n), a module's
`num_cosets` and its `gen_actions`.  `install` rebinds attributes for the
whole process, so the traced jobs run in a child interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import BENCHMARKS
from tamerank.characters import FieldSpec

SRC = Path(__file__).resolve().parents[1] / "src"

# loads tracer.py without writing bytecode beside it (-B), installs it, runs
# the jobs given as JSON and prints the per-layer metrics
TRACED_RUN = """
import importlib.util, json, sys
from tamerank import cli
spec = importlib.util.spec_from_file_location("benchmark_tracer", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
for command, doc in json.loads(sys.argv[2]):
    cli.run(cli.parse_config(json.dumps(doc)), command)
print(json.dumps({name: value for name, (value, unit) in tracer.metrics({}, {}, 0).items()}))
"""

JOBS = [
    ("rank", {"p": 5, "S": [7, 11], "lambda": {"mode": "auto", "table": {"omega^1": 0}}}),
    # the same field with S grown by one prime: its characters and its tests
    # at 7 and 11 are shared with the job before
    ("rank", {"p": 5, "S": [7, 11, 19], "lambda": {"mode": "table", "table": {"all": 0}}}),
    ("lambda", {"p": 7}),
    ("oracle", {"p": 3, "S": [7]}),
    ("lambda", {"p": 3, "f": 239, "H": [49]}),  # lambda = 6, read at level 2
]


def test_tracer_hooks_count_a_small_batch():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_RUN, str(BENCHMARKS / "tracer.py"), json.dumps(JOBS)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["stickelberger.series.calls"] > 0
    # every other lambda is read at level 1 from two series; lambda = 6 takes three
    assert metrics["stickelberger.series_per_lambda"] > 2
    assert metrics["stickelberger.residues_scanned"] > 0
    assert metrics["stickelberger.precision_retries"] == 0
    assert metrics["residue.cosets"] > 0
    assert metrics["residue.smith_cells"] > 0
    # consecutive jobs on one field share its characters and classes
    fields = [(doc["p"], doc.get("f", 1), tuple(doc.get("H", []))) for _, doc in JOBS]
    runs = [field for i, field in enumerate(fields) if i == 0 or fields[i - 1] != field]
    assert metrics["characters.enumerate.calls"] == len(runs)
    assert metrics["characters.classes.calls"] == len(runs)
    assert metrics["characters.enumerated"] == sum(FieldSpec(*field).group_order for field in runs)
    assert metrics["frobenius.sigma0_ok.calls_per_pair"] == 1.0
