"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
  1. a tampered expected answer trips the output gate, for every job kind;
  2. every metric the benchmark is specified to report is declared in
     BENCHMARK.json, and a traced and an untraced run of the
     `sampler-verify` workload emit every declared metric with its
     declared unit;
  3. every metric name uses only letters, digits, `_`, `.` and `-`;
  4. run.py fails without printing a result when the package source is
     missing.
It takes about two minutes, most of it the two `sampler-verify` runs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from worker import run_job  # noqa: E402

K = ("prime", "ext_table", "ext_large")
SPECIFIED_METRICS = (
    ["setup_s", "run_s", "peak_rss_mb", "error_rate", "count_tuples_per_s.prime",
     "count_tuples_per_s.ext", "census_tuples_per_s", "prefix_tuples_per_s"]
    + [f"trials_per_s.{k}" for k in K]
    + ["gf.table_build_s.gf64", "gf.table_build_s.gf256", "gf.table_entries",
       "gf.elem_op_ns.ext_table"]
    + [f"gf.{op}_ns.{k}" for op in ("mul", "inv", "add") for k in K]
    + ["hankel.rank_calls", "hankel.rank_busy_s", "hankel.det_calls", "hankel.det_us_p50",
       "hankel.materialize_calls", "hankel.materialize_us_p50"]
    + [f"hankel.rank_us_{p}.{k}" for p in ("p50", "p90") for k in K]
    + ["ranklaw.rank_le_fast_calls", "ranklaw.rank_le_fast_us_p50", "ranklaw.elkies_calls",
       "ranklaw.elkies_us_p50"]
    + [f"witness.{fn}.{part}" for fn in ("solve_tail", "alpha", "beta", "is_weakly_nice",
                                         "is_strongly_nice", "sumlast_sides", "annihilates")
       for part in ("calls", "self_s")]
    + ["census.enum.self_s", "census.enum.tuples_covered", "census.enum.ns_per_tuple",
       "census.enum.rank_tests_per_tuple", "census.par.blocks", "census.par.busy_s",
       "census.par.wall_s", "census.par.efficiency"]
    + [f"census.mc.{part}_us_per_trial.{k}" for part in ("draw", "rank", "loop") for k in K]
    + [f"census.suite.{s}.self_s" for s in ("lemmas", "identities", "witnesses", "theorems", "jt")]
    + ["census.prefix_family.self_s", "cli.calls", "cli.self_s", "trace.overhead_s"]
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _job(kind, argv, work, **params):
    field = argv[argv.index("--field") + 1]
    return workloads.Job(kind, field, argv + ["--format", "json"], work, params)


def _tampered_json(stdout: str, edit) -> str:
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload)


def check_gate() -> list[str]:
    problems = []
    count = _job("count", ["count", "--field", "2", "--m", "2", "--n", "3", "--r", "1",
                           "--mode", "both", "--jobs", "1"], 2**6, m=2, n=3, r=1, k=0)
    census = _job("census", ["census", "--field", "3", "--m", "1", "--n", "2", "--jobs", "1"],
                  3**4, m=1, n=2)
    sample = _job("sample", ["sample", "--field", "101", "--m", "4", "--n", "4", "--r", "4",
                             "--trials", "300", "--seed", "5"], 300, r=4)
    verify = _job("verify", ["verify", "--suite", "jt", "--field", "2", "--jobs", "1"], 0)
    res = {job.kind: run_job(job) for job in (count, census, sample, verify)}
    verify.work = len(json.loads(res["verify"].stdout))
    successes = workloads.sample_successes(res["sample"].stdout)

    def bump_observed(p):
        p["observed"] = str(int(p["observed"]) + 1)

    def bump_row(p):
        p[0]["observed"] = str(int(p[0]["observed"]) + 1)

    cases = [  # (job, stdout, pinned answer, should pass)
        (count, res["count"].stdout, None, True),
        (count, _tampered_json(res["count"].stdout, bump_observed), None, False),
        (census, res["census"].stdout, None, True),
        (census, _tampered_json(res["census"].stdout, bump_row), None, False),
        (sample, res["sample"].stdout, successes, True),
        (sample, res["sample"].stdout, successes + 1, False),
        (verify, res["verify"].stdout, None, True),
    ]
    tampered_verify = workloads.Job("verify", verify.field, verify.argv, verify.work + 1)
    cases.append((tampered_verify, res["verify"].stdout, None, False))
    for job, stdout, pinned, ok in cases:
        problem = workloads.check_output(job, res[job.kind].exit_code, stdout, pinned)
        if (problem is None) != ok:
            problems.append(f"gate on {job.kind} (should pass: {ok}) gave {problem!r}")
    return problems


def check_names(spec: dict) -> list[str]:
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        problems.append("a metric name is declared twice")
    for name, unit in declared.items():
        if not NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if not UNIT.match(unit):
            problems.append(f"bad unit {unit!r} for {name}")
    for w in spec["workloads"]:
        if not NAME.match(w["name"]):
            problems.append(f"bad workload name {w['name']!r}")
    problems += [f"specified metric {n} is not declared" for n in SPECIFIED_METRICS
                 if n not in declared]
    return problems


def run_bench(args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=200)


def check_emission(spec: dict) -> list[str]:
    problems = []
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run_bench(["--workload", "sampler-verify", "--seed", "0", "--seconds", "1",
                          "--trace", str(trace)])
        if proc.returncode != 0:
            problems.append(f"trace {trace} run exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
            problems.append(f"trace {trace} result is not a correct result: {result}")
        for m in declared:
            got = result["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                problems.append(f"trace {trace}: {m['name']} emitted as {got}")
    return problems


def check_no_source() -> list[str]:
    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(workloads.EXPECTED_PATH, bare / "perfbench")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sampler-verify",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run without package source exited {proc.returncode}, printed {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_gate() + check_names(spec) + check_no_source() + check_emission(spec)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "pass" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
