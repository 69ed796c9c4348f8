"""One workload process: set up, run the job list, check it, report.

Started by run.py in a fresh interpreter with the checkout's `src` on
PYTHONPATH.  With `--role setup` it only measures set-up: importing the
package and building every field the workload names, lazy tables and
element lists included.  With `--role run` it then runs the job list
through `hankelcensus.cli.main` over and over, one job at a time and with
stdout captured, until `--seconds` have passed.  With `--trace 1` it runs
one untraced and one traced pass instead, then the probes.  It prints one
JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import workloads

perf = time.perf_counter

# element lists are built only for fields small enough to list
_ELEMENT_LIST_LIMIT = 4096


def setup(workload: str, src: Path) -> float:
    t0 = perf()
    import hankelcensus
    from hankelcensus import cli  # noqa: F401  (the entry point the jobs use)
    from hankelcensus.gf import parse_field

    if Path(hankelcensus.__file__).resolve().parent != (src / "hankelcensus").resolve():
        raise SystemExit(f"hankelcensus imported from {hankelcensus.__file__}, not {src}")
    for text in workloads.workload_fields(workload):
        spec = parse_field(text)
        getattr(spec, "tables", None)
        if spec.order <= _ELEMENT_LIST_LIMIT:
            spec.elements()
    return perf() - t0


class JobResult(NamedTuple):
    job: workloads.Job
    exit_code: int
    seconds: float
    stdout: str
    error: str | None


def run_job(job, rec=None, run_id=0) -> JobResult:
    from hankelcensus import cli

    out, err = io.StringIO(), io.StringIO()
    # each job starts on a collected heap, as a fresh CLI process would, so
    # the garbage of the job before it is not collected on its clock
    gc.collect()
    st = frame = None
    if rec is not None:
        rec.run_id = run_id
        st = rec.state()
        frame = rec.enter(st, True)
    t0 = perf()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
        error = None
    except SystemExit as exc:  # argparse usage errors
        code, error = exc.code if isinstance(exc.code, int) else 2, err.getvalue()[-300:]
    except Exception as exc:  # a crash is a failed job; the run goes on
        code, error = -1, f"{type(exc).__name__}: {exc}"
    seconds = perf() - t0
    if rec is not None:
        rec.leave(st, frame, ("cli.main", "", ""), True)
    return JobResult(job, code, seconds, out.getvalue(), error)


def run_pass(jobs, rec=None) -> tuple[float, list[JobResult]]:
    t0 = perf()
    results = [run_job(job, rec, i + 1) for i, job in enumerate(jobs)]
    return perf() - t0, results


def run_for(jobs, seconds: float, deadline: float) -> list[list[JobResult]]:
    """Run the job list over and over, one job at a time, until `seconds`
    have passed (at least one whole pass) or the next job would start past
    `deadline`.  Returns the runs of each job, in job-list order."""
    runs = [[] for _ in jobs]
    t0 = perf()
    for i in itertools.count():
        runs[i % len(jobs)].append(run_job(jobs[i % len(jobs)]))
        if i + 1 >= len(jobs) and (perf() - t0 >= seconds or perf() >= deadline):
            return runs


def run_seconds(runs) -> float:
    """Wall time of the job list: the sum over jobs of each job's median time."""
    return sum(statistics.median(r.seconds for r in job_runs) for job_runs in runs)


def gate(runs, pinned) -> list[str]:
    """Check every run of every job; `runs` holds the runs of each job, in
    job-list order, and `pinned` the sample jobs' pinned successes."""
    errors = []
    samples = iter(pinned or ())
    for job_runs in runs:
        job = job_runs[0].job
        expected = next(samples, None) if job.kind == "sample" else None
        for res in job_runs:
            problem = workloads.check_output(job, res.exit_code, res.stdout, expected)
            if problem:
                errors.append(f"{' '.join(job.argv)}: {problem}")
        # on any seed: every run of a sample job draws the same successes
        counts = [workloads.sample_successes(r.stdout) for r in job_runs
                  if job.kind == "sample" and completed(r)]
        if len(set(counts)) > 1:
            errors.append(f"{' '.join(job.argv)}: success counts differ between runs: {counts}")
    return errors


def completed(res) -> bool:
    """The job ran to the end: exit 0, or 1 for a verdict the program reports."""
    return res.exit_code in (0, 1)


def rates(results) -> dict:
    def rate(pred):
        sel = [r for r in results if pred(r.job)]
        secs = sum(r.seconds for r in sel)
        return sum(r.job.work for r in sel) / secs if secs else 0.0

    return {
        "count_tuples_per_s.prime": rate(lambda j: j.kind == "count" and j.field_kind == "prime"),
        "count_tuples_per_s.ext": rate(lambda j: j.kind == "count" and j.field_kind != "prime"),
        "census_tuples_per_s": rate(lambda j: j.kind == "census"),
        "prefix_tuples_per_s": rate(lambda j: j.kind == "prefix"),
        "trials_per_s.prime": rate(lambda j: j.kind == "sample" and j.field_kind == "prime"),
        "trials_per_s.ext_table": rate(lambda j: j.kind == "sample" and j.field_kind == "ext_table"),
        "trials_per_s.ext_large": rate(lambda j: j.kind == "sample" and j.field_kind == "ext_large"),
        "error_rate": sum(
            workloads.program_failed(r.job, r.exit_code, r.stdout) for r in results
        ) / len(results),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def job_record(res) -> dict:
    return {
        "argv": res.job.argv,
        "exit_code": res.exit_code,
        "seconds": res.seconds,
        "program_failed": workloads.program_failed(res.job, res.exit_code, res.stdout),
        "error": res.error,
    }


def _quantile_us(durations, q: float) -> float:
    if not durations:
        return 0.0
    data = sorted(durations)
    return data[min(len(data) - 1, int(q * len(data)))] * 1e6


def layer_metrics(rec) -> dict:
    from spans import WITNESS_FUNCS

    aggs = rec.merged()

    def pick(name, kind=None, ctx=None):
        return [a for (n, k, c), a in aggs.items()
                if n == name and (kind is None or k == kind) and (ctx is None or c == ctx)]

    def calls(*key, **kw):
        return sum(a.calls for a in pick(*key, **kw))

    def total(*key, **kw):
        return sum(a.total for a in pick(*key, **kw))

    def self_s(*key, **kw):
        return sum(a.self_time for a in pick(*key, **kw))

    def extra(*key, **kw):
        return sum(a.extra for a in pick(*key, **kw))

    def durations(*key, **kw):
        out = []
        for a in pick(*key, **kw):
            out.extend(a.durations or ())
        return out

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"hankel.rank_calls": calls("hankel.rank"), "hankel.rank_busy_s": total("hankel.rank")}
    kinds = ("prime", "ext_table", "ext_large")
    for kind in kinds:
        d = durations("hankel.rank", kind)
        m[f"hankel.rank_us_p50.{kind}"] = _quantile_us(d, 0.5)
        m[f"hankel.rank_us_p90.{kind}"] = _quantile_us(d, 0.9)
    for name, timed in (("hankel.det", "hankel.det"),
                        ("hankel.materialize", "hankel.materialize"),
                        ("ranklaw.rank_le_fast", "ranklaw.rank_le_fast.durations"),
                        ("ranklaw.elkies", "ranklaw.elkies.durations")):
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_us_p50"] = _quantile_us(durations(timed), 0.5)
    for label in WITNESS_FUNCS.values():
        m[f"witness.{label}.calls"] = calls(f"witness.{label}")
        m[f"witness.{label}.self_s"] = self_s(f"witness.{label}")

    tuples = extra("census.enum")
    m["census.enum.self_s"] = self_s("census.enum") + self_s("census.block")
    m["census.enum.tuples_covered"] = tuples
    m["census.enum.ns_per_tuple"] = ratio(total("census.enum") * 1e9, tuples)
    m["census.enum.rank_tests_per_tuple"] = ratio(calls("hankel.rank", ctx="enum"), tuples)
    m["census.par.blocks"] = calls("census.block")
    m["census.par.busy_s"] = total("census.block.cpu")
    m["census.par.wall_s"] = total("census.map_blocks")
    m["census.par.efficiency"] = ratio(total("census.block.cpu"), total("census.par.capacity"))
    for kind in kinds:
        trials = extra("census.mc", kind)
        per = 1e6 / trials if trials else 0.0
        m[f"census.mc.draw_us_per_trial.{kind}"] = total("census.draw", kind) * per
        m[f"census.mc.rank_us_per_trial.{kind}"] = total("hankel.rank", kind, ctx="mc") * per
        m[f"census.mc.loop_us_per_trial.{kind}"] = (
            total("census.mc", kind) - total("census.rank_kernel_setup", kind, ctx="mc")) * per
    for suite in ("lemmas", "identities", "witnesses", "theorems", "jt"):
        m[f"census.suite.{suite}.self_s"] = self_s(f"census.suite.{suite}")
    m["census.prefix_family.self_s"] = self_s("census.prefix_family")
    m["cli.calls"] = calls("cli.main")
    m["cli.self_s"] = self_s("cli.main")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run"), default="run")
    ap.add_argument("--budget", type=float, default=150.0, help="seconds this process may take")
    ap.add_argument("--src", required=True)
    args = ap.parse_args(argv)

    started = perf()
    setup_s = setup(args.workload, Path(args.src))
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    jobs = workloads.build_jobs(args.workload, args.seed)
    pinned = workloads.load_expected()["sampler_successes"].get(str(args.seed))
    if args.trace:
        untraced = run_pass(jobs)
        runs = [[res] for res in untraced[1]]
    else:
        runs = run_for(jobs, args.seconds, started + args.budget)
    report = {
        "setup_s": setup_s,
        "runs_per_job": [len(job_runs) for job_runs in runs],
        "run_s": run_seconds(runs),
        "peak_rss_mb": peak_rss_mb(),
    }

    if args.trace:
        import probes
        import spans

        rec = spans.Recorder()
        targets = spans.install(rec)
        try:
            traced = run_pass(jobs, rec)
        finally:
            spans.uninstall(targets)
        for job_runs, res in zip(runs, traced[1]):
            job_runs.append(res)
        metrics = rates(untraced[1])
        metrics.update(layer_metrics(rec))
        metrics["trace.untraced_run_s"] = untraced[0]
        metrics["trace.traced_run_s"] = traced[0]
        metrics["trace.overhead_s"] = traced[0] - untraced[0]
        metrics.update(probes.run(args.seed, workloads.workload_fields(args.workload)))
        report["metrics"] = metrics
        report["spans"] = rec.spans()

    all_results = [r for job_runs in runs for r in job_runs]
    report.update(
        attempted=len(all_results),
        failed=sum(not completed(r) for r in all_results),
        gate_errors=gate(runs, pinned),
        jobs=[job_record(r) for job_runs in runs for r in job_runs],
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
