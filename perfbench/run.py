"""hankelcensus benchmark: end-to-end CLI runs on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py for the job lists):

  exhaustive      `count --mode both`, `census` and one prefix family at --jobs 1
  sampler-verify  six `sample` jobs on prime, table and no-table fields, then
                  `verify --suite all --field 2,3,4,5 --jobs 1`

Each run starts one fresh interpreter for the workload (worker.py) with
the checkout's `src` on PYTHONPATH, so nothing needs installing.  With
`--trace 0` it also starts one to eight interpreters that only set up,
before the workload process and as many again after it, and reports the
end-to-end metrics of BENCHMARK.json:

  setup_s      median set-up time over all of these interpreters
  run_s        wall time of the job list: each job's median time, summed; the
               list runs over and over, one job at a time, until --seconds
               have passed (at least once)
  peak_rss_mb  peak RSS of the workload process, plus the largest peak of
               any process it started

With `--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics, the per-job-kind rates, the program's error rate and
the tracing overhead.

Counts in the last line:
  attempted  CLI jobs run
  failed     jobs that did not complete (a crash, a usage error, the cap)
  correct    every answer passed the output gate of workloads.py
The program's own verdicts (exit 1, "mismatch") do not make a job fail
here; they are counted in the per-layer `error_rate`.

A full record of the run (machine, provenance, per-job times, spans) is
written to perfbench/out/.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
RUN_LIMIT_S = 170.0
# set-up samples before the run, and again after it: at least SETUP_MIN,
# and more (up to SETUP_MAX) while they take under SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 1, 8, 1.0

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, load, started_utc: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": load,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "started_utc": started_utc,
    }


def run_worker(args, role: str, deadline: float) -> dict:
    """Run worker.py to the end and return its report; raises on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # the same string hashing in every process
    remaining = deadline - time.monotonic()
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--role", role, "--src", str(SRC),
        "--budget", str(max(remaining - 20.0, 1.0)),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} worker ran past the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} worker printed nothing: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def setup_samples(args, deadline: float) -> list[float]:
    samples = []
    while len(samples) < SETUP_MAX and (
            len(samples) < SETUP_MIN or sum(samples) < SETUP_BUDGET_S):
        samples.append(run_worker(args, "setup", deadline)["setup_s"])
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "hankelcensus" / "__init__.py").is_file():
        return fail(f"no package source at {SRC.relative_to(ROOT)}/hankelcensus", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    load = os.getloadavg()

    try:
        before = [] if args.trace else setup_samples(args, deadline)
        report = run_worker(args, "run", deadline)
        after = [] if args.trace else setup_samples(args, deadline)
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))
    setups = before + [report["setup_s"]] + after

    if args.trace:
        values = report["metrics"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": report["run_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not report["gate_errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }

    record = {
        "provenance": provenance(args, load, started_utc),
        "result": result,
        "setup_samples_s": setups,
        "runs_per_job": report["runs_per_job"],
        "gate_errors": report["gate_errors"],
        "jobs": report["jobs"],
        "spans": [dict(zip(("id", "name", "start", "end", "parent", "run", "thread"), s))
                  for s in report.get("spans", ())],
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    for problem in report["gate_errors"]:
        print(f"perfbench: gate: {problem}", file=sys.stderr)
    print(json.dumps(record["provenance"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
