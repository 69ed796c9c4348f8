"""Row 0: re-measure the baseline table of ROADMAP.md and compare.

    python3 perfbench/row0.py            # prints the table, writes perfbench/row0.json

Each row is measured through the same CLI entry point and span recorder
as the benchmark; CLI rows report the median of three calls.  A row
agrees when the measurement lies within the published value or range
widened by 25% on each side; rows that do not agree are reported as such.  The GF(1024) table build (30.8 s) is not
re-run: the build is quadratic in q, so it is estimated as 16 times the
GF(256) build.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import git_commit, source_digest  # noqa: E402
from worker import layer_metrics, run_job  # noqa: E402

TOLERANCE = 0.25
REPEATS = 3


def _job(argv: list[str]) -> workloads.Job:
    field = argv[argv.index("--field") + 1]
    return workloads.Job(argv[0], field, argv + ["--format", "json"], 0)


def cli_seconds(argv: list[str]) -> float:
    """Median wall time of REPEATS calls."""
    times = []
    for _ in range(REPEATS):
        res = run_job(_job(argv))
        if res.exit_code not in (0, 1):
            raise RuntimeError(f"{' '.join(argv)} exited {res.exit_code}: {res.error}")
        times.append(res.seconds)
    return statistics.median(times)


def mc_per_trial(field: str, trials: int) -> dict:
    rec = spans.Recorder()
    targets = spans.install(rec)
    try:
        run_job(_job(["sample", "--field", field, "--m", "4", "--n", "4", "--r", "4",
                      "--trials", str(trials), "--seed", "7"]), rec, 1)
    finally:
        spans.uninstall(targets)
    kind = workloads.field_kind(field)
    m = layer_metrics(rec)
    return {part: m[f"census.mc.{part}_us_per_trial.{kind}"] for part in ("loop", "draw", "rank")}


def rows() -> list[dict]:
    out = []

    def row(what, unit, published, measured, note=""):
        lo, hi = published if isinstance(published, tuple) else (published, published)
        agrees = lo * (1 - TOLERANCE) <= measured <= hi * (1 + TOLERANCE)
        out.append({"what": what, "unit": unit, "published": published, "measured": measured,
                    "agrees": agrees, "note": note})

    count = ["count", "--field", "5", "--m", "3", "--n", "4", "--r", "3", "--mode", "brute"]
    census = ["census", "--field", "4", "--m", "3", "--n", "4"]
    verify = ["verify", "--suite", "all", "--field", "2,3"]
    for jobs in (1, 2):
        row(f"count --mode brute GF(5) (3,4,3), jobs={jobs}", "s", (3.9, 4.7),
            cli_seconds(count + ["--jobs", str(jobs)]))
    for jobs, published in ((1, 0.54), (2, 0.50)):
        row(f"census GF(4) (3,4), jobs={jobs}", "s", published,
            cli_seconds(census + ["--jobs", str(jobs)]))
    for jobs, published in ((1, 3.65), (2, 3.72)):
        row(f"verify --suite all --field 2,3, jobs={jobs}", "s", published,
            cli_seconds(verify + ["--jobs", str(jobs)]))
    mc = mc_per_trial("101", 20_000)
    row("Monte Carlo GF(101) (4,4,4) per trial", "us", 43.6, mc["loop"])
    row("  of which drawing", "us", 16.0, mc["draw"])
    row("  of which rank", "us", 21.0, mc["rank"])
    row("Monte Carlo GF(2048) per trial, no-table path", "us", 4267.0,
        mc_per_trial(workloads.GF2048, 300)["loop"])
    row("Monte Carlo GF(64) per trial", "us", 42.0, mc_per_trial("64", 20_000)["loop"])
    gf256 = probes.build_s(workloads.GF256)
    row("FieldSpec table build GF(1024)", "s", 30.8, 16 * gf256,
        note=f"16 x the GF(256) build of {gf256:.3f} s; not re-run")
    return out


def main() -> int:
    table = rows()
    for r in table:
        pub = r["published"]
        pub = f"{pub[0]}-{pub[1]}" if isinstance(pub, tuple) else f"{pub}"
        flag = "agrees" if r["agrees"] else "DISAGREES"
        print(f"{r['what']:52} {pub:>9} {r['measured']:10.3f} {r['unit']:3} {flag} {r['note']}")
    record = {
        "provenance": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "commit": git_commit(ROOT),
            "source_sha256": source_digest(ROOT / "src"),
            "measured_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "tolerance": TOLERANCE,
        },
        "rows": table,
    }
    (BENCH_DIR / "row0.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
