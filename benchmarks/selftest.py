"""Self-test of the benchmark's output guard: tampered reports are refused.

    python3 benchmarks/selftest.py

1. For one job of every workload, the real report passes checks.py and a
   report altered in a field the check covers does not.
2. A check batch whose first report is altered fails the pinned digests.
3. A run whose timed batches alter a report refuses to record: exit status
   1 and a last line with correct = false and no metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys

import worker  # puts src/ on sys.path
import checks
from workloads import generate


def _tampered(command: str, report: dict) -> dict:
    """The report with one checked fact changed."""
    report = json.loads(json.dumps(report))
    if command == "rank":
        report["total"] += 1
    elif command == "lambda":
        row = report["rows"][0]
        row["lambda"] = 0 if row["lambda"] else 1
    elif command == "oracle":
        report["all_pass"] = False
    elif command == "chars":
        report["characters"].pop()
    return report


def check_invariants() -> list:
    """The first job of each command, over the workloads' seed-1 lists."""
    failures, firsts = [], {}
    for workload in worker.WORKLOADS:
        for command, doc in generate(workload, 1):
            firsts.setdefault(command, (workload, doc))
    for command, (workload, doc) in firsts.items():
        report = worker.cli.run(worker.cli.parse_config(doc), command)
        if checks.check_report(command, doc, worker.emit(report)):
            failures.append(f"{workload}: a correct {command} report was refused")
        if not checks.check_report(command, doc, worker.emit(_tampered(command, report))):
            failures.append(f"{workload}: a tampered {command} report was accepted")
    return failures


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          timeout=170, cwd=worker.HERE.parent)


def check_pins() -> list:
    proc = _run(worker.HERE / "worker.py", "check", "--workload", "oracle-grid", "--seed", 1, "--tamper")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not any("differs from its pinned digest" in p for p in out["problems"]):
        return ["a tampered report matched its pinned digest"]
    return []


def check_refusal() -> list:
    proc = _run(worker.HERE / "run.py", "--workload", "oracle-grid", "--seed", 1, "--seconds", 1, "--tamper")
    last = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 1 or last["correct"] is not False or last["metrics"]:
        return [f"a run with tampered reports recorded: status {proc.returncode}, {last}"]
    return []


def main() -> int:
    failures = check_invariants() + check_pins() + check_refusal()
    for line in failures:
        print(f"FAIL {line}")
    print("self-test:", "FAILED" if failures else "ok (tampered reports are refused)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
