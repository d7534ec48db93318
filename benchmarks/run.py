"""tamerank benchmark: seeded job workloads, end-to-end job metrics, and a
traced per-layer split.

    python3 benchmarks/run.py --workload rank-sweep --seed 1 --trace 0
    python3 benchmarks/run.py --workload all --seed 1      # every workload in turn
    python3 benchmarks/run.py --pin                        # re-pin report digests

--seconds defaults to run_seconds of BENCHMARK.json.

One run of a workload is a sequence of batches, each the whole job list in
a fresh single-threaded worker process (worker.py), one after another and
never concurrently, until --seconds have passed.  The first batch also
checks every report after its last job, outside the timed region; every
later report must be byte-identical to the checked one.  With --trace 1 the
batches after the first alternate between traced and untraced, and the run
reports the per-layer metrics instead of the end-to-end ones.

Every time is reported at a reference host speed (hostspeed.py): each job
time is scaled by the calibration chunks the worker timed just before and
just after the job, and each set-up time by the chunk timed right after it.
The measured seconds are printed next to the scaled ones.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A wrong report makes
the run refuse to record: it prints correct = false with no metrics and exits
with status 1.  Any other failure exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PINS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

from hostspeed import REF_CHUNK_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_BATCHES = 4  # timed batches per run, at least
SETUPS_PER_BATCH = 1  # extra set-up-only worker start after each batch
MIN_TRACED = 2  # traced and untraced batches per traced run, at least
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
WORKER_TIMEOUT = 170
PIN_SEEDS = tuple(range(0, 11))


class BenchError(Exception):
    """The benchmark could not run (not a wrong report)."""


def spawn(mode: str, workload: str, seed: int, tamper: bool = False) -> dict:
    """Run one worker batch and return its JSON line, plus setup_s (measured)
    and setup_scaled_s (at the reference host speed)."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload, "--seed", str(seed)]
    if tamper:
        cmd.append("--tamper")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT,
                              cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - t0
    out["setup_scaled_s"] = out["setup_s"] * REF_CHUNK_S / out["chunks"][0]
    return out


def tail_percentile(jobs_per_batch: int) -> int:
    """Highest whole percentile that leaves TAIL_BEYOND job samples above it
    in the smallest run (MIN_BATCHES batches); more batches only add samples."""
    n = jobs_per_batch * MIN_BATCHES
    return max(0, 100 * (n - TAIL_BEYOND) // n)


def nearest_rank(sorted_values: list, pct: int) -> float:
    k = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[k - 1]


def batch_seconds(batch: dict) -> float:
    """Measured time to solution of the batch: the sum of its job times (parse,
    run and serialise; digests and calibration chunks between jobs are not
    timed)."""
    return sum(job["s"] for job in batch["jobs"])


def scaled_jobs(batch: dict) -> list:
    """The batch's job times at the reference host speed, each scaled by the
    mean of the calibration chunks just before and just after the job."""
    c = batch["chunks"]
    return [job["s"] * 2 * REF_CHUNK_S / (c[i] + c[i + 1]) for i, job in enumerate(batch["jobs"])]


def measure(workload: str, seed: int, seconds: float, trace: bool, tamper: bool) -> dict:
    """The check batch, then timed (and traced) batches for `seconds`."""
    start = time.monotonic()
    check = spawn("check", workload, seed)
    expected = [job["digest"] for job in check["jobs"]]
    problems = check["problems"]
    attempted, failed = len(expected), check["failed_jobs"]
    timed, traced = [check], []
    setups = [check]
    while not problems:
        mode = "trace" if trace and len(traced) < len(timed) else "time"
        batch = spawn(mode, workload, seed, tamper)
        (traced if mode == "trace" else timed).append(batch)
        setups += [batch] + [spawn("setup", workload, seed) for _ in range(SETUPS_PER_BATCH)]
        attempted += len(batch["jobs"])
        for i, (job, digest) in enumerate(zip(batch["jobs"], expected)):
            if job["error"] is not None or job["digest"] != digest:
                failed += 1
                problems.append(f"{mode} batch {len(timed) + len(traced)}, job {i}: "
                                f"{job['error'] or 'report differs from the checked report'}")
        elapsed = time.monotonic() - start
        enough = len(timed) >= (MIN_TRACED if trace else MIN_BATCHES) and len(traced) >= (MIN_TRACED if trace else 0)
        if enough and elapsed * (1 + 1 / (len(timed) + len(traced))) > seconds:
            break
    return {"check": check, "timed": timed, "traced": traced, "setups": setups,
            "problems": problems, "attempted": attempted, "failed": failed}


def end_to_end(run: dict) -> tuple:
    """(metrics, their bases) for an untraced run.

    batch_s is the mean scaled batch time.  For the median and the tail each
    job run is valued at its job's median over the run's batches: the host's
    speed can change in the middle of a job, where no calibration chunk sees
    it, and the median drops the batches in which that happened.
    """
    timed, jobs = run["timed"], len(run["check"]["jobs"])
    scaled = [scaled_jobs(b) for b in timed]
    job_medians = [statistics.median(b[i] for b in scaled) for i in range(jobs)]
    pooled = sorted(m for m in job_medians for _ in timed)
    pct = tail_percentile(jobs)
    # the check batch holds its reports for checking, so it sets no memory figure
    rss = [b["rss_kb"] for b in timed[1:]]
    values = {
        "batch_s": statistics.fmean(sum(b) for b in scaled),
        "job_p50_s": statistics.median(pooled),
        "job_tail_s": nearest_rank(pooled, pct),
        "setup_s": statistics.median(w["setup_scaled_s"] for w in run["setups"]),
        "peak_rss_mb": statistics.median(rss) / 1024,
    }
    batches = " ".join(f"{sum(b):.3f}" for b in scaled)
    measured = " ".join(f"{batch_seconds(b):.3f}" for b in timed)
    setups = statistics.median(w["setup_s"] for w in run["setups"])
    per_job = f"{len(pooled)} job runs, each valued at its job's median over {len(timed)} batches"
    bases = {
        "batch_s": f"mean of {len(timed)} batches of {jobs} jobs: {batches} (measured {measured})",
        "job_p50_s": f"median of {per_job}",
        "job_tail_s": f"p{pct} of {per_job} ({len(pooled) - math.ceil(pct * len(pooled) / 100)} beyond)",
        "setup_s": f"median of {len(run['setups'])} worker starts (interpreter, import, job generation; "
                   f"measured {setups:.4f} s)",
        "peak_rss_mb": f"median ru_maxrss of {len(rss)} workers",
    }
    return values, bases


def per_layer(run: dict) -> tuple:
    """(median per-layer metrics over traced batches, units, overhead line)."""
    traced = run["traced"]
    names = traced[0]["layers"].keys()
    values = {n: statistics.median(b["layers"][n][0] for b in traced) for n in names}
    units = {n: traced[0]["layers"][n][1] for n in names}
    untraced_s = statistics.median(sum(scaled_jobs(b)) for b in run["timed"])
    traced_s = statistics.median(sum(scaled_jobs(b)) for b in traced)
    values.update({"trace.overhead": traced_s / untraced_s, "trace.batch_s": traced_s,
                   "trace.untraced_batch_s": untraced_s})
    units.update({"trace.overhead": "ratio", "trace.batch_s": "s", "trace.untraced_batch_s": "s"})
    return values, units


def layer_checks(workload: str, v: dict) -> list:
    """The heavy layer each workload was chosen for, read off its self times."""
    share = lambda *names: sum(v[n] for n in names) / v["job.s"]  # noqa: E731
    checks = [
        ("stickelberger.s > 0 only on lambda-minus", (v["stickelberger.s"] > 0) == (workload == "lambda-minus")),
        ("residue.s > 0 only on oracle-grid", (v["residue.s"] > 0) == (workload == "oracle-grid")),
    ]
    if workload == "lambda-minus":
        checks.append((f"stickelberger.* is {share('stickelberger.s'):.0%} of job time (> 50%)",
                       share("stickelberger.s") > 0.5))
    if workload == "rank-sweep":
        s = share("characters.s", "frobenius.sigma0_ok.s")
        checks.append((f"characters.* + frobenius.sigma0_ok is {s:.0%} of job time (> 50%)", s > 0.5))
    if workload == "oracle-grid":
        s = share("residue.s", "localring.root_matrix.s")
        checks.append((f"residue.* + localring.root_matrix is {s:.0%} of job time (> 50%)", s > 0.5))
    if workload == "chars-cyclic":
        s = share("characters.s", "cli.run.s", "cli.emit.s")
        checks.append((f"characters.* + cli.run + cli.emit is {s:.0%} of job time (> 50%)", s > 0.5))
    return checks


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds, trace: bool, tamper: bool) -> int:
    spec = benchmark_spec()
    seconds = spec["run_seconds"] if seconds is None else seconds
    run = measure(workload, seed, seconds, trace, tamper)
    props = run["check"]["properties"]
    if run["problems"]:
        for line in run["problems"]:
            print(f"REFUSED {workload}: {line}", file=sys.stderr)
        print(f"{workload}: {len(run['problems'])} wrong or failed reports; nothing recorded")
        print(json.dumps({"correct": False, "attempted": run["attempted"], "failed": run["failed"],
                          "metrics": {}}))
        return 1

    print(f"workload {workload}, seed {seed}: {props['jobs']} jobs per batch; "
          f"{len(run['timed'])} timed and {len(run['traced'])} traced batches, each a fresh worker")
    print(f"  properties: jobs {props['jobs']}, repeat-field share "
          f"{props['repeat_field_jobs'] / props['jobs']:.3f} ({props['repeat_field_jobs']}/{props['jobs']}), "
          f"sum |G| {props['sum_group_order']}, classes {props['class_count']}")
    print(f"  fail_ratio {run['failed'] / run['attempted']} ({run['failed']}/{run['attempted']} jobs)")
    if not trace:
        values, bases = end_to_end(run)
        metrics = {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<12} {values[m['name']]:.6g} {m['unit']:<5} {bases[m['name']]}")
    else:
        values, units = per_layer(run)
        print(f"  sizes: sum f'p^(n+1) {values['stickelberger.residues_scanned']:.0f}, "
              f"sum Smith cells {values['residue.smith_cells']:.0f}")
        print(f"  tracing overhead {values['trace.overhead']:.3f} "
              f"(traced batch_s {values['trace.batch_s']:.4f} s / untraced {values['trace.untraced_batch_s']:.4f} s)")
        for name in sorted(values):
            print(f"  {name:<40} {values[name]:.6g} {units[name]}")
        for text, ok in layer_checks(workload, values):
            print(f"  layer check: {text}: {'ok' if ok else 'FAIL'}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    print(json.dumps({"correct": True, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


def pin() -> int:
    """Re-pin the report digests of PIN_SEEDS for every workload.  Reports
    must pass every other check; run this only when report bytes change on
    purpose."""
    reports = {}
    for workload in WORKLOADS:
        reports[workload] = {}
        for seed in PIN_SEEDS:
            check = spawn("check", workload, seed)
            wrong = [p for p in check["problems"] if "pinned digest" not in p]
            if wrong:
                print("\n".join(wrong), file=sys.stderr)
                return 1
            for key, job in zip(check["keys"], check["jobs"]):
                reports[workload][key] = job["digest"]
        print(f"{workload}: {len(reports[workload])} reports pinned")
    PINS.write_text(json.dumps({"seeds": list(PIN_SEEDS), "reports": reports}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", action="store_true",
                    help="alter one report in every timed batch; the run must refuse (self-test)")
    ap.add_argument("--pin", action="store_true", help="re-pin report digests and exit")
    args = ap.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.pin:
            return pin()
        status = 0
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            status = max(status, run_workload(workload, args.seed, args.seconds, bool(args.trace), args.tamper))
        return status
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
