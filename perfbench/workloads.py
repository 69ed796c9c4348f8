"""Workload job lists and the output gate.

A job is one call of the public CLI entry point `hankelcensus.cli.main`.
Every job asks for `--format json`, so the gate can read its answer, and
every enumerating job passes `--jobs` explicitly, because the CLI's
default is the machine's core count.

The gate checks answers against closed forms written out here, not
against the program's own formulas, and never looks at the verdict the
program prints.  Verdicts are counted separately (see `program_failed`).
This module imports nothing from the package, so the entry script can
use it before any child process starts.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("exhaustive", "sampler-verify")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

GF256 = "2^8:1,0,1,1,1,0,0,0,1"
GF2048 = "2^11:1,0,1,0,0,0,0,0,0,0,0,1"

# (field, m, n, r) for `count --mode both`
COUNT_JOBS = ((5, 3, 4, 3), (7, 3, 3, 2), (8, 2, 3, 2), (9, 2, 3, 2))
# (field, m, n) for `census`
CENSUS_JOBS = ((4, 3, 4), (5, 3, 3), (8, 2, 3))
# (field, m, n, r, k): one `count --prefix` call for each k-prefix
PREFIX_FAMILY = (3, 4, 5, 4, 2)
# (field, r, trials) for `sample --m 4 --n 4`
SAMPLE_JOBS = (
    ("101", 4, 100_000),
    ("101", 1, 20_000),
    ("2147483647", 4, 20_000),
    ("64", 4, 40_000),
    (GF256, 4, 10_000),
    (GF2048, 4, 1_000),
)
SAMPLE_M = SAMPLE_N = 4
VERIFY_FIELDS = ("2", "3", "4", "5")


def field_order(spec: str) -> tuple[int, int]:
    """(p, d) of a CLI field spec: 'Q' for a prime or built-in order, or 'p^d:...'."""
    if "^" in spec:
        p, rest = spec.split("^", 1)
        return int(p), int(rest.split(":", 1)[0])
    q = int(spec)
    for p in (2, 3, 5, 7):
        if q % p == 0 and q != p:
            d = round(math.log(q, p))
            return p, d
    return q, 1


def field_kind(spec: str) -> str:
    """prime, ext_table (extension of order <= 1024, which has q x q tables
    at the commit this benchmark was written for) or ext_large."""
    p, d = field_order(spec)
    if d == 1:
        return "prime"
    return "ext_table" if p**d <= 1024 else "ext_large"


@dataclass
class Job:
    kind: str  # count | census | prefix | sample | verify
    field: str
    argv: list[str]
    work: int  # tuples answered, trials drawn, or records expected
    params: dict = dataclass_field(default_factory=dict)

    @property
    def q(self) -> int:
        p, d = field_order(self.field)
        return p**d

    @property
    def field_kind(self) -> str:
        return field_kind(self.field)


def _count_job(kind, q, m, n, r, prefix, jobs) -> Job:
    argv = ["count", "--field", str(q), "--m", str(m), "--n", str(n), "--r", str(r),
            "--mode", "both", "--jobs", str(jobs), "--format", "json"]
    if prefix:
        argv += ["--prefix", ",".join(map(str, prefix))]
    free = m + n + 1 - len(prefix)
    return Job(kind, str(q), argv, q**free, {"m": m, "n": n, "r": r, "k": len(prefix)})


def sample_jobs(rng: random.Random) -> list[Job]:
    """The six `sample` jobs; each draws its trial seed from `rng`."""
    out = []
    for spec, r, trials in SAMPLE_JOBS:
        trial_seed = rng.randrange(2**31)
        argv = ["sample", "--field", spec, "--m", str(SAMPLE_M), "--n", str(SAMPLE_N),
                "--r", str(r), "--trials", str(trials), "--seed", str(trial_seed),
                "--format", "json"]
        out.append(Job("sample", spec, argv, trials, {"r": r, "seed": trial_seed}))
    return out


def verify_job(rng: random.Random) -> Job:
    """`verify --suite all` on every verify field, in an order drawn from `rng`."""
    fields = list(VERIFY_FIELDS)
    rng.shuffle(fields)
    argv = ["verify", "--suite", "all", "--field", ",".join(fields), "--jobs", "1",
            "--format", "json"]
    return Job("verify", ",".join(fields), argv, load_expected()["verify_records"])


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one workload pass; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "exhaustive":
        out = [_count_job("count", q, m, n, r, (), 1) for q, m, n, r in COUNT_JOBS]
        for q, m, n in CENSUS_JOBS:
            argv = ["census", "--field", str(q), "--m", str(m), "--n", str(n),
                    "--jobs", "1", "--format", "json"]
            out.append(Job("census", str(q), argv, q ** (m + n + 1), {"m": m, "n": n}))
        q, m, n, r, k = PREFIX_FAMILY
        for prefix in itertools.product(range(q), repeat=k):
            out.append(_count_job("prefix", q, m, n, r, prefix, 1))
        # enumeration has no random input; the seed only sets the job order
        rng.shuffle(out)
        return out
    if workload == "sampler-verify":
        # the sample jobs draw first, so their pinned counts depend on the seed alone
        return sample_jobs(rng) + [verify_job(rng)]
    raise ValueError(f"unknown workload {workload!r}")


def workload_fields(workload: str) -> list[str]:
    """Every field spec the workload names, for the set-up measurement."""
    if workload == "exhaustive":
        specs = [q for q, *_ in COUNT_JOBS] + [q for q, *_ in CENSUS_JOBS] + [PREFIX_FAMILY[0]]
        return sorted({str(q) for q in specs}, key=lambda s: int(s))
    if workload == "sampler-verify":
        return list(dict.fromkeys([spec for spec, _, _ in SAMPLE_JOBS] + list(VERIFY_FIELDS)))
    raise ValueError(f"unknown workload {workload!r}")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ----------------------------------------------------------------------
# Closed forms (written out independently of hankelcensus.census)
# ----------------------------------------------------------------------


def rank_le_count(q: int, r: int, k: int) -> int:
    """Prefix-fixed tuples with rank <= r: Q^(2r-k)."""
    return q ** (2 * r - k)


def rank_eq_count(q: int, m: int, n: int, r: int) -> int:
    """Tuples with rank exactly r on the (m, n) view, m <= n."""
    if r == 0:
        return 1
    if r <= m:
        return q ** (2 * r - 2) * (q * q - 1)
    if r == m + 1:
        return q ** (2 * r - 2) * (q ** (n - m + 1) - 1)
    return 0


def rank_le_probability(q: int, r: int, length: int) -> Fraction:
    e = 2 * r - length
    return Fraction(q**e) if e >= 0 else Fraction(1, q**-e)


def successes_in_band(successes: int, trials: int, p0: Fraction) -> bool:
    """Whether a success count is within 6 sigma (plus one) of trials * p0.

    The band comes from the target's own variance, so it stays sound when
    the observed proportion is 0 or 1.
    """
    mean = float(p0) * trials
    sd = math.sqrt(trials * float(p0) * (1.0 - float(p0)))
    return abs(successes - mean) <= 6.0 * sd + 1.0


# ----------------------------------------------------------------------
# Reading outputs
# ----------------------------------------------------------------------


def program_failed(job: Job, exit_code: int, stdout: str) -> bool:
    """The program's own report of failure: a nonzero exit or a mismatch verdict."""
    if exit_code != 0:
        return True
    try:
        payload = json.loads(stdout)
    except ValueError:
        return True
    records = payload if isinstance(payload, list) else [payload]
    return any(rec.get("verdict") == "mismatch" for rec in records)


def sample_successes(stdout: str) -> int:
    return int(json.loads(stdout)["observed"]["successes"])


def check_output(job: Job, exit_code: int, stdout: str, expected: int | None) -> str | None:
    """The output gate: None when the answer is right, else what is wrong.

    `expected` is the job's pinned answer where one exists (sampler
    success counts for pinned seeds); the program's verdict plays no part.
    """
    # a sample job exits 1 when the program's own verdict is "mismatch"
    if exit_code not in ((0, 1) if job.kind == "sample" else (0,)):
        return f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if job.kind in ("count", "prefix"):
        want = str(rank_le_count(job.q, job.params["r"], job.params["k"]))
        if payload.get("observed") != want or payload.get("formula") != want:
            return f"count {payload.get('observed')} / formula {payload.get('formula')}, want {want}"
        return None
    if job.kind == "census":
        q, m, n = job.q, job.params["m"], job.params["n"]
        lo, hi = sorted((m, n))
        got = {rec["params"]["rank"]: rec["observed"] for rec in payload}
        want = {r: str(rank_eq_count(q, lo, hi, r)) for r in range(lo + 2)}
        if got != want:
            return f"census rows {got}, want {want}"
        if sum(map(int, got.values())) != q ** (m + n + 1):
            return "census rows do not sum to Q^(m+n+1)"
        return None
    if job.kind == "sample":
        obs = payload.get("observed") or {}
        if obs.get("trials") != str(job.work):
            return f"trials {obs.get('trials')}, want {job.work}"
        succ = int(obs["successes"])
        if expected is not None and succ != expected:
            return f"successes {succ}, pinned {expected}"
        p0 = rank_le_probability(job.q, job.params["r"], SAMPLE_M + SAMPLE_N + 1)
        if not successes_in_band(succ, job.work, p0):
            return f"successes {succ} far from {job.work} * {p0}"
        return None
    if job.kind == "verify":
        if len(payload) != job.work:
            return f"{len(payload)} records, pinned {job.work}"
        bad = [rec["command"] for rec in payload if rec.get("verdict") in ("mismatch", "skipped")]
        if bad:
            return f"{len(bad)} records mismatch or skipped, first {bad[0]}"
        return None
    return f"unknown job kind {job.kind}"
