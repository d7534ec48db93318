"""One batch of a benchmark workload in a fresh interpreter.

Runs the workload's job list through the path `tamerank.cli.main` takes --
`parse_config`, `run(job, command)`, `json.dumps(report, indent=2)` -- in
process, with no argv or file I/O, so the package's process-wide caches
start cold and fill across the batch's jobs.  Prints one JSON line.

Modes:
  setup  stop once the first job is ready; report that instant and the
         time of one calibration chunk run right after it (and after an
         untimed warm-up chunk)
  time   time every job, and a calibration chunk (hostspeed.py) before
         every job and after the last; report job and chunk times,
         digests, set-up instant and peak RSS
  check  as time, then check every report (checks.py, pinned digests)
         after the last job, and report the workload's size properties
  trace  as time, with spans around the package's public functions
         (tracer.py); also reports the per-layer metrics

Usage: python3 benchmarks/worker.py MODE --workload NAME --seed N
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
PINS = HERE / "digests.json"
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import tamerank  # noqa: E402
from tamerank import arith, cli, localring  # noqa: E402
from tamerank.errors import TameRankError  # noqa: E402

if Path(tamerank.__file__).resolve().parent != SRC.resolve() / "tamerank":
    sys.exit(f"tamerank was imported from {tamerank.__file__}, not from {SRC}")

from hostspeed import chunk, time_chunk  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def emit(report: dict) -> str:
    return json.dumps(report, indent=2)


def job_key(command: str, doc: str) -> str:
    """Pin key of a job: digest of its command and document text."""
    return hashlib.sha256(f"{command}\n{doc}".encode()).hexdigest()[:24]


def report_digest(text: str) -> str:
    """Digest of the bytes the CLI writes for a report (text plus newline)."""
    return hashlib.sha256((text + "\n").encode()).hexdigest()


def tamper(text: str) -> str:
    """Change the last digit of a report (used by the self-test)."""
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def run_jobs(jobs, keep_text: bool, tamper_first: bool, tracer=None) -> tuple:
    """(one dict per job: seconds, digest, report bytes, error, and the report
    text when keep_text; the calibration chunk times, one before each job and
    one after the last).  Only parse, run and serialise are timed."""
    emit_report = emit if tracer is None else tracer.wrap("cli.emit", emit)
    results, chunks = [], []
    for job_id, (command, doc) in enumerate(jobs):
        chunks.append(time_chunk())
        if tracer is not None:
            tracer.job = job_id
            tracer.begin("job")
        t0 = time.perf_counter()
        text = error = None
        try:
            text = emit_report(cli.run(cli.parse_config(doc), command))
        except TameRankError as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        result = {"s": seconds, "error": error, "digest": None, "bytes": 0}
        if text is not None:
            if tamper_first:
                text, tamper_first = tamper(text), False
            result.update(digest=report_digest(text), bytes=len(text) + 1)
            if keep_text:
                result["text"] = text
        results.append(result)
    chunks.append(time_chunk())
    return results, chunks


def cache_counts() -> dict:
    return {"arith.unit_group": arith.unit_group.cache_info(),
            "localring.local_ring": localring.local_ring.cache_info()}


def check_batch(workload: str, seed: int, jobs, results) -> dict:
    """Check every report of the batch; also the workload's size properties."""
    import checks

    pins = json.loads(PINS.read_text()) if PINS.exists() else {"seeds": [], "reports": {}}
    pinned = pins["reports"].get(workload, {})
    problems, failed_jobs, keys, seen_fields = [], 0, [], set()
    props = {"jobs": len(jobs), "repeat_field_jobs": 0, "sum_group_order": 0, "class_count": 0}
    for (command, doc), result in zip(jobs, results):
        key = job_key(command, doc)
        keys.append(key)
        job = json.loads(doc)
        fkey = checks.field_key(job)
        props["repeat_field_jobs"] += fkey in seen_fields
        seen_fields.add(fkey)
        props["sum_group_order"] += checks.field_of(job).group_order
        if result["error"] is not None:
            job_problems = [result["error"]]
        else:
            text = result["text"]
            job_problems = checks.check_report(command, doc, text)
            if key in pinned and pinned[key] != result["digest"]:
                job_problems.append("report differs from its pinned digest")
            elif key not in pinned and seed in pins["seeds"]:
                job_problems.append("no pinned digest for a pinned seed")
            props["class_count"] += checks.class_count(command, doc, text)
        failed_jobs += bool(job_problems)
        problems += [f"{command} {doc}: {p}" for p in job_problems]
    return {"keys": keys, "problems": problems, "failed_jobs": failed_jobs, "properties": props}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "check", "time", "trace"))
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tamper", action="store_true", help="alter the first report (self-test)")
    args = ap.parse_args(argv)

    jobs = generate(args.workload, args.seed)
    ready = time.monotonic()
    chunk()  # untimed warm-up: a process's first chunk runs slower than the rest
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "chunks": [time_chunk()]}))
        return 0
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    caches_before = cache_counts()
    results, chunks = run_jobs(jobs, args.mode == "check", args.tamper, tracer)
    caches_after = cache_counts()

    out = {"ready": ready, "chunks": chunks, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "jobs": [{k: r[k] for k in ("s", "digest", "error")} for r in results]}
    if args.mode == "check":
        out.update(check_batch(args.workload, args.seed, jobs, results))
    if tracer is not None:
        out["layers"] = tracer.metrics(caches_before, caches_after, sum(r["bytes"] for r in results))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
