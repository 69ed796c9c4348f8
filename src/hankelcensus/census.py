"""Counting laws for Hankel ranks: closed forms, brute force, sampling.

The closed forms count (m+n+1)-tuples over GF(Q) whose (m, n) Hankel view
satisfies a rank condition, optionally with the first k entries pinned to
a prefix a:

  * rank <= r with k <= r <= m and r <= n (the "standard" range), or
    with k <= r = m = n+1 (the "full-width" range, where the column count
    already caps the rank): Q^(2r-k) tuples;
  * rank exactly r for m <= n: a four-branch piecewise formula;
  * det = 0 for the square (n, n) view with k <= n: Q^(2n-k);
  * singular Jacobi-Trudi matrices with u, v >= 1: Q^(u+v-2).

Every formula is paired with an exhaustive counter that tallies all
Q^(m+n+1-k) completions by rank, and with a seeded Monte Carlo estimator
for fields too large to sweep.  `verify` drives formula-vs-oracle
comparisons and the property suites over a parameter grid and returns one
report per checked family.

The estimator runs its trials in batches of _MC_BATCH.  Each trial's
suffix is drawn on its own, from a splitmix64 counter keyed off the seed
and the trial number.  Each batch is then decided by one lockstep
elimination on the reduced view (hankel._lockstep_kernel), which
pivots every trial's view on its diagonal with one list comprehension
per entry over the whole batch.  A view that meets a zero pivot is
decided on its own, so the count is exactly that of one rank test per
trial.

The exhaustive counter walks the prefix tree of the tuple depth first.  It
reads the Hankel view in whichever orientation has the shorter columns,
with nrows entries per column, so that entry x_t completes column
t-nrows+1, and keeps an echelon basis of the finished columns.  With
x_t = y the new column's residual against that basis is r0 + y*re, where
r0 is its residual at y = 0 and re that of the last unit vector.  So the
values of x_t that keep the rank are known in closed form: exactly one if
r0 is a multiple of re, and none otherwise (when re = 0, r0 is never 0 on
a Hankel view, so none keeps it).  Whole subtrees are tallied without
being visited, exactly: once the rank exceeds the limit asked for, or
reaches nrows, every completion has that rank.  The last entry is never
enumerated.  A fixed prefix goes into the basis before the walk starts.

The walk is split into blocks that fix the first few free entries.  A
head with a nonzero entry gets one block per value of the first free
entry, or one block in all when that entry is the last, which the walk
settles in closed form.  Under an all-zero head the counts are the same
on every orbit of x -> c*x and x_t -> b^t*x_t, so the walk visits one
representative completion set per orbit: for each position of the first
nonzero free entry, the block that sets it to 1 and its neighbour to 0,
weighted q-1, and the block that sets both to 1, weighted (q-1)^2 (just
the 1, weighted q-1, at the last position), plus the all-zero completion.
The cap is charged Q^(free) before the walk starts, an upper bound on the
tuples it visits.

The witness suite flags each tuple once per gadget vector and view, not
once per prefix.  For every vector v it flags the tuples in odometer
order, one set for v on the (m, n) view and, for last(v) = 0, one for R(v)
on the (m-1, n+1) view.  The flagged tuples are grown one entry at a time,
each entry taking only the values that complete an annihilated window.
The tuples with a given k-prefix are one contiguous block of Q^(m+n+1-k)
flags, so each (v, prefix) count ratio is a sum over a block.  Both round
trips through alpha and beta run once per nice tuple, in the context of
its own (n+1)-prefix, which settles every shorter prefix as well (see
suite_witnesses), and the closure of the freed entry is read off the
flags.  Tuple objects are built only for flagged tuples.  The cap is
charged a full sweep per flag set, an upper bound on the work: one test
per tuple for each tail-solver vector, two for each bijection vector.

The identity suite computes each tuple's kernel-counting term (the ranks
of its (m, n) and (m-1, n+1) views, turned into annihilator counts by
rank-nullity; see ranklaw) once per (m, n), in odometer order, into one
running sum per prefix block of the finest length min(m, n+1).  The
tuples with a given k-prefix are consecutive, so the side for a shorter
prefix is the sum of Q consecutive finer sums, and every prefix gets the
side that witness.sumlast_sides returns for it.  The cap is charged
Q^(m+n+1) per (m, n), exactly the terms computed; summing each prefix on
its own would compute min(m, n+1)+1 times as many.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import wraps
from math import sqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

from hankelcensus.gf import FieldSpec
from hankelcensus.hankel import (
    RowVector,
    SeqTuple,
    _hankel_code_rows,
    _lockstep_kernel,
    _rank_codes,
    _rank_kernel,
    _sub_mul_kernel,
    det,
    iter_seq_tuples,
    jt_matrix,
    jt_to_hankel,
)
from hankelcensus.ranklaw import _annihilator_term, elkies_identity_sides, rank_le_fast
from hankelcensus.witness import (
    NiceContext,
    R_inv,
    R_map,
    _annihilation_flags,
    _window_successors,
    alpha,
    beta,
    is_strongly_nice,
    is_weakly_nice,
    solve_tail,
)

__all__ = [
    "CapExceededError",
    "CountQuery",
    "RankDistribution",
    "CensusReport",
    "MonteCarloEstimate",
    "DEFAULT_CAP",
    "SUITES",
    "count_rank_le_formula",
    "count_rank_eq_formula",
    "count_det_zero_formula",
    "count_jt_singular_formula",
    "rank_le_probability",
    "brute_count_rank_le",
    "brute_census",
    "brute_count_jt_singular",
    "monte_carlo_rank_le",
    "make_report",
    "target_stderr",
    "all_passed",
    "verify",
    "suite_lemmas",
    "suite_identities",
    "suite_witnesses",
    "suite_theorems",
    "suite_jt",
]

DEFAULT_CAP = 10**7

SUITES = ("lemmas", "identities", "witnesses", "theorems", "jt")


class CapExceededError(RuntimeError):
    """An exhaustive run would exceed the enumeration cap.

    Raised out of a verify suite, it carries in `reports` the suite's
    reports that were finished before the cap was hit.
    """

    def __init__(self, required: int, cap: int):
        super().__init__(f"enumeration needs {required} steps, cap is {cap}")
        self.required = required
        self.cap = cap
        self.reports: list[CensusReport] = []


@dataclass(frozen=True)
class CountQuery:
    """Parameters of a prefix-fixed rank-bound count.

    The regime records which closed-form range the parameters sit in:
    "standard" (k <= r <= m, r <= n), "full-width" (k <= r = m = n+1,
    the column count already caps the rank), or "none" (no closed form
    is claimed; brute force still works).
    """

    field: FieldSpec
    m: int
    n: int
    r: int
    prefix: SeqTuple | None = None
    regime: str = dataclass_field(init=False)

    def __post_init__(self):
        if self.prefix is None:
            object.__setattr__(self, "prefix", SeqTuple(self.field, ()))
        if self.m < 0 or self.n < 0 or self.r < 0:
            raise ValueError(f"need m, n, r >= 0, got m={self.m}, n={self.n}, r={self.r}")
        if self.prefix.field != self.field:
            raise ValueError("prefix lives in a different field")
        k = len(self.prefix)
        if k > self.m + self.n + 1:
            raise ValueError(f"prefix length {k} exceeds tuple length {self.m + self.n + 1}")
        if k <= self.r <= self.m and self.r <= self.n:
            regime = "standard"
        elif k <= self.r and self.r == self.m == self.n + 1:
            regime = "full-width"
        else:
            regime = "none"
        object.__setattr__(self, "regime", regime)

    @property
    def k(self) -> int:
        return len(self.prefix)

    @property
    def tuple_len(self) -> int:
        return self.m + self.n + 1


@dataclass(frozen=True)
class RankDistribution:
    """Exact tally of tuple counts by rank; covers ranks 0..min(m,n)+1."""

    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")

    def count_le(self, r: int) -> int:
        return sum(c for rho, c in self.counts.items() if rho <= r)

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


class MonteCarloEstimate(NamedTuple):
    estimate: Fraction
    stderr: float
    successes: int
    trials: int


@dataclass(frozen=True)
class CensusReport:
    """Self-describing record of one verification or count run."""

    check: str
    field: FieldSpec
    params: dict
    mode: str  # formula | brute | monte-carlo
    formula_value: object
    observed_value: object
    verdict: str | None  # match | mismatch | estimate-within-tolerance | skipped
    elapsed_s: float


def target_stderr(target: Fraction, trials: int) -> float:
    """Standard error of a success rate over `trials` draws at probability target.

    Monte Carlo verdicts use this null-hypothesis spread rather than the
    estimate's own, which is 0 whenever no trial (or every trial) succeeds.
    """
    return sqrt(float(target * (1 - target)) / trials)


def make_report(
    check: str,
    field: FieldSpec,
    params: dict,
    *,
    formula,
    observed,
    mode: str = "brute",
    elapsed_s: float = 0.0,
) -> CensusReport:
    """Build a report, deciding the verdict from the two values."""
    if mode == "monte-carlo":
        est: MonteCarloEstimate = observed
        diff = abs(est.estimate - formula)
        within = diff == 0 or float(diff) <= 4.0 * target_stderr(formula, est.trials)
        verdict = "estimate-within-tolerance" if within else "mismatch"
    elif formula is None or observed is None:
        verdict = None
    else:
        verdict = "match" if formula == observed else "mismatch"
    return CensusReport(check, field, params, mode, formula, observed, verdict, elapsed_s)


def all_passed(reports: Iterable[CensusReport]) -> bool:
    return all(r.verdict != "mismatch" for r in reports)


# ----------------------------------------------------------------------
# Closed-form counts
# ----------------------------------------------------------------------


def count_rank_le_formula(query: CountQuery) -> int:
    """Number of prefix-fixed tuples with rank <= r: Q^(2r-k)."""
    if query.regime == "none":
        raise ValueError(
            "no closed form outside the ranges k <= r <= m, r <= n and "
            f"k <= r = m = n+1 (got m={query.m}, n={query.n}, r={query.r}, k={query.k})"
        )
    return query.field.order ** (2 * query.r - query.k)


def count_rank_eq_formula(field: FieldSpec, m: int, n: int, r: int) -> int:
    """Number of tuples with rank exactly r, for m <= n (piecewise)."""
    if m < 0 or n < 0 or r < 0:
        raise ValueError(f"need m, n, r >= 0, got m={m}, n={n}, r={r}")
    if m > n:
        raise ValueError(
            f"formula needs m <= n (got m={m}, n={n}); swap the degrees first, "
            "rank is transpose-invariant"
        )
    q = field.order
    if r == 0:
        return 1
    if r <= m:
        return q ** (2 * r - 2) * (q**2 - 1)
    if r == m + 1:
        return q ** (2 * r - 2) * (q ** (n - m + 1) - 1)
    return 0


def count_det_zero_formula(field: FieldSpec, n: int, k: int) -> int:
    """Number of prefix-fixed (2n+1)-tuples with singular (n, n) view."""
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"formula needs k <= n, got k={k}, n={n}")
    return field.order ** (2 * n - k)


def count_jt_singular_formula(field: FieldSpec, u: int, v: int) -> int:
    """Number of (u+v-1)-tuples with singular Jacobi-Trudi matrix."""
    if u < 1 or v < 1:
        raise ValueError(
            f"count needs u >= 1 and v >= 1 (got u={u}, v={v}): at u=0 or v=0 "
            "the matrix is unitriangular or empty, so no tuple is singular"
        )
    return field.order ** (u + v - 2)


def rank_le_probability(query: CountQuery) -> Fraction:
    """Probability that a uniform prefix-fixed tuple has rank <= r."""
    if query.regime == "none":
        raise ValueError("no closed-form probability outside the formula ranges")
    q = query.field.order
    exponent = 2 * query.r - query.tuple_len
    if exponent >= 0:
        return Fraction(q**exponent)
    return Fraction(1, q**-exponent)


# ----------------------------------------------------------------------
# Exhaustive enumeration engine
# ----------------------------------------------------------------------


def _check_cap(work: int, cap: int) -> None:
    if work > cap:
        raise CapExceededError(work, cap)


def _test_shape(m: int, n: int, r: int) -> tuple[int, int]:
    # rank <= r is decided on the reduced (r, m+n-r) view whenever the
    # reduction hypotheses r <= m, r <= n hold; otherwise on (m, n) itself
    if r <= m and r <= n:
        return r, m + n - r
    return m, n


def _walk_blocks(
    q: int, head: Sequence[int], free: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The walk's blocks of fixed first free entries, and their weights.

    A head with a nonzero entry gets one block per value of the first free
    entry, or one empty block when at most one entry is free, since the walk
    settles the last entry in closed form.  Under an all-zero head there is
    one block per scaling orbit, weighted by the number of completion sets
    that share its tallies.  A block fixes len(block) free entries, so the sum of
    weight * q^(free - len(block)) over the blocks is q^free.
    """
    if free and not any(head):
        # One block per scaling orbit.  x -> c*x scales every view by c, and
        # x_t -> b^t*x_t turns a view H into D H D' with D, D' = diag(b^i);
        # for c, b != 0 both are bijections on the completions of a zero
        # head that keep every rank.  Sort the nonzero completions by the
        # first nonzero entry x_s = a, at free position j, and its
        # neighbour x_{s+1} = a'.  (c, b) = (1/a, 1) maps class (a, 0)
        # onto class (1, 0), and when a' != 0 the one pair b = a/a',
        # c = 1/(a*b^s) maps class (a, a') onto class (1, 1).  So the q-1
        # classes (a, 0) have the tallies of block (0^j, 1, 0), the
        # (q-1)^2 classes with a' != 0 those of (0^j, 1, 1), and when x_s
        # is the last entry the q-1 classes a those of (0^j, 1).  The
        # all-zero completion is a block of its own, at rank 0
        blocks, weights = [(0,) * free], [1]
        for j in range(free):
            if j + 1 < free:
                blocks += [(0,) * j + (1, 0), (0,) * j + (1, 1)]
                weights += [q - 1, (q - 1) ** 2]
            else:
                blocks.append((0,) * j + (1,))
                weights.append(q - 1)
    else:
        blocks = [()] if free <= 1 else [(c,) for c in range(q)]
        weights = [1] * len(blocks)
    return blocks, weights


def _tally_ranks(
    spec: FieldSpec,
    head: Sequence[int],
    free: int,
    shape: tuple[int, int],
    limit: int,
    cap: int,
) -> list[int]:
    """Rank tallies over all completions of head by `free` entries.

    tallies[rho] counts completions whose (rdeg, cdeg) = shape view has
    rank rho; ranks above limit land in tallies[limit + 1].

    The tallies come from a depth-first walk over the tuple prefix tree
    that keeps an echelon basis of the view's finished columns, run once
    per block of _walk_blocks and summed with the blocks' weights.
    """
    q = spec.order
    _check_cap(q**free, cap)
    # rank is transpose-invariant: walk the orientation with shorter columns
    nrows, ncols = sorted((shape[0] + 1, shape[1] + 1))
    limit = min(limit, nrows)
    stop = min(limit + 1, nrows)  # a rank that settles every completion
    last = nrows + ncols - 2  # index of the last entry
    sub_mul = _sub_mul_kernel(spec)
    mul, inv, neg = spec.mul_code, spec.inv_code, spec.neg_code
    zero = [0] * nrows
    unit = zero[1:] + [1]

    def reduce(v: list[int], basis: list) -> list[int]:
        # basis vectors are 1 at their pivot and 0 at earlier pivots
        for piv, b in basis:
            if v[piv]:
                v = sub_mul(v, v[piv], b)
        return v

    def push(basis: list, v: list[int]) -> list:
        piv = next(i for i, c in enumerate(v) if c)
        s = inv(v[piv])
        return basis + [(piv, [mul(s, c) for c in v])]

    def tally_block(first: tuple[int, ...]) -> list[int]:
        tallies = [0] * (limit + 2)
        x = list(head) + list(first) + [0] * (free - len(first))

        def walk(t: int, basis: list) -> None:
            # x[:t] is set and rank = len(basis) < stop; x_t completes column
            # t - nrows + 1, whose residual for x_t = y is r0 + y*re
            rank = len(basis)
            if t < nrows - 1:
                for y in range(q):
                    x[t] = y
                    walk(t + 1, basis)
                return
            x[t] = 0
            r0 = reduce(x[t - nrows + 1 : t + 1], basis)
            # Pivots sit at first nonzero entries, so re is e_last itself, or
            # 0 once e_last is in the basis.  Either way r0 + y*re is 0 at
            # the one y = -r0[-1] if r0 vanishes off its last entry, and at
            # no y otherwise.  For re = 0 that needs r0 != 0: were e_last and
            # the column at y = 0 both in the span, each annihilator (u', 0)
            # of the span would give another, (0, u'), and there would be
            # more than nrows - rank independent ones
            re = zero if any(piv == nrows - 1 for piv, _ in basis) else unit
            keep = [] if any(r0[:-1]) else [neg(r0[-1])]
            raised = q - len(keep)
            if t == last:
                tallies[rank] += len(keep)
                tallies[rank + 1] += raised
                return
            values = range(q)
            if rank + 1 == stop:  # each raising value settles its subtree
                tallies[stop] += raised * q ** (last - t)
                values = keep
            for y in values:
                x[t] = y
                if y in keep:
                    walk(t + 1, basis)
                else:
                    walk(t + 1, push(basis, sub_mul(r0, neg(y), re)))

        fixed = len(head) + len(first)
        basis: list = []
        for t in range(nrows - 1, fixed):
            v = reduce(x[t - nrows + 1 : t + 1], basis)
            if any(v):
                basis = push(basis, v)
                if len(basis) == stop:
                    tallies[stop] += q ** (last + 1 - fixed)
                    return tallies
        if fixed > last:
            tallies[len(basis)] += 1
        else:
            walk(fixed, basis)
        return tallies

    blocks, weights = _walk_blocks(q, head, free)
    parts = [tally_block(b) for b in blocks]
    return [sum(w * n for w, n in zip(weights, col)) for col in zip(*parts)]


def brute_count_rank_le(query: CountQuery, cap: int = DEFAULT_CAP) -> int:
    """Exact count of prefix completions with rank(H_{m,n}(x)) <= r.

    Works in any regime; the closed form only exists in the "standard"
    and "full-width" regimes, but the enumeration itself is unconditional.
    """
    shape = _test_shape(query.m, query.n, query.r)
    free = query.tuple_len - query.k
    tallies = _tally_ranks(query.field, query.prefix.codes, free, shape, query.r, cap)
    return sum(tallies[: query.r + 1])


def brute_census(
    field: FieldSpec,
    m: int,
    n: int,
    prefix: SeqTuple | None = None,
    cap: int = DEFAULT_CAP,
) -> RankDistribution:
    """Full rank histogram over all prefix completions."""
    if m < 0 or n < 0:
        raise ValueError(f"need m, n >= 0, got m={m}, n={n}")
    if prefix is None:
        prefix = SeqTuple(field, ())
    if prefix.field != field:
        raise ValueError("prefix lives in a different field")
    k = len(prefix)
    if k > m + n + 1:
        raise ValueError(f"prefix length {k} exceeds tuple length {m + n + 1}")
    free = m + n + 1 - k
    max_rank = min(m, n) + 1
    tallies = _tally_ranks(field, prefix.codes, free, (m, n), max_rank, cap)
    counts = {rho: tallies[rho] for rho in range(max_rank + 1)}
    return RankDistribution(counts, field.order**free)


def brute_count_jt_singular(
    field: FieldSpec,
    u: int,
    v: int,
    cap: int = DEFAULT_CAP,
    *,
    path: str = "flip",
) -> int:
    """Count tuples with singular Jacobi-Trudi matrix, exhaustively.

    path="flip" (default) runs each tuple through the upside-down Hankel
    reduction and tests det = 0 as a rank bound on the (v-1, v-1) view;
    path="direct" evaluates the determinant of the Jacobi-Trudi matrix
    itself.  The two routes must agree instance-wise.
    """
    if u < 1 or v < 1:
        raise ValueError(f"need u >= 1 and v >= 1, got u={u}, v={v}")
    if path not in ("flip", "direct"):
        raise ValueError(f"unknown path {path!r}")
    q = field.order
    _check_cap(q ** (u + v - 1), cap)
    count = 0
    zero = field.zero
    for y in iter_seq_tuples(field, u + v - 1):
        if path == "flip":
            x = jt_to_hankel(y, u, v)
            rows = _hankel_code_rows(x.codes, v - 1, v - 1)
            if _rank_codes(field, rows, v - 1) <= v - 1:
                count += 1
        else:
            if det(jt_matrix(y, u, v)) == zero:
                count += 1
    return count


# ----------------------------------------------------------------------
# Seeded Monte Carlo
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _draw_codes(spec: FieldSpec, key: int, count: int) -> list[int]:
    """Uniform element codes by rejection sampling on ceil(log2 Q) bits.

    Word j = 1, 2, ... is _mix64(key + j*_GOLDEN), and a code takes the
    next ceil(bits/64) words, high word first.  For Q <= 2^64, one word
    per code, the mix is written out in the loop and the counter steps
    by _GOLDEN, which saves a call per word.
    """
    q = spec.order
    bits = (q - 1).bit_length()
    mask = (1 << bits) - 1
    out: list[int] = []
    z = key & _MASK64
    if bits > 64:
        nwords = (bits + 63) // 64
        while len(out) < count:
            w = 0
            for _ in range(nwords):
                z = (z + _GOLDEN) & _MASK64
                w = (w << 64) | _mix64(z)
            c = w & mask
            if c < q:
                out.append(c)
        return out
    left = count
    while left:
        z = (z + _GOLDEN) & _MASK64
        y = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        y = ((y ^ (y >> 27)) * 0x94D049BB133111EB) & _MASK64
        c = (y ^ (y >> 31)) & mask
        if c < q:
            out.append(c)
            left -= 1
    return out


_MC_BATCH = 512  # trials per lockstep elimination


def monte_carlo_rank_le(
    query: CountQuery, trials: int, rng_seed: int
) -> MonteCarloEstimate:
    """Estimate the probability that a random completion has rank <= r.

    Suffixes come from a counter-based generator keyed off (seed, trial),
    so the estimate is reproducible across platforms and independent of
    any parallel schedule.  Trials run in batches of _MC_BATCH: each batch
    is drawn trial by trial and then decided by one lockstep elimination
    (hankel._lockstep_kernel) on the reduced view, which gives exactly
    the count that one rank test per trial would.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    spec = query.field
    m, n, r = query.m, query.n, query.r
    free = query.tuple_len - query.k
    rdeg, cdeg = _test_shape(m, n, r)
    count_rank_le = _lockstep_kernel(spec)
    head = list(query.prefix.codes)
    base_key = _mix64(rng_seed & _MASK64)
    successes = 0
    for lo in range(0, trials, _MC_BATCH):
        batch = [
            head + _draw_codes(spec, _mix64((base_key + t * _GOLDEN) & _MASK64), free)
            for t in range(lo + 1, min(lo + _MC_BATCH, trials) + 1)
        ]
        successes += count_rank_le(batch, rdeg, cdeg, r)
    p_hat = successes / trials
    stderr = sqrt(p_hat * (1.0 - p_hat) / trials)
    return MonteCarloEstimate(Fraction(successes, trials), stderr, successes, trials)


# ----------------------------------------------------------------------
# Verification suites
# ----------------------------------------------------------------------


def _timed(check, field, params, formula, observed, mode, started) -> CensusReport:
    return make_report(
        check,
        field,
        params,
        formula=formula,
        observed=observed,
        mode=mode,
        elapsed_s=time.perf_counter() - started,
    )


def _suite(gen):
    """Collect a suite's reports, as they finish, into a list.

    A cap hit partway leaves the finished reports on the CapExceededError.
    """

    @wraps(gen)
    def run(*args, **kwargs) -> list[CensusReport]:
        reports: list[CensusReport] = []
        try:
            for report in gen(*args, **kwargs):
                reports.append(report)
        except CapExceededError as exc:
            exc.reports = reports
            raise
        return reports

    return run


def _len_bound(q: int, ceiling: int = 1024, lo: int = 1, hi: int = 4) -> int:
    n = lo
    while n < hi and q ** (n + 2) <= ceiling:
        n += 1
    return n


def _lemma_bound(q: int) -> int:
    if q == 2:
        return 6
    if q == 3:
        return 4
    return _len_bound(q)


@_suite
def suite_lemmas(
    field: FieldSpec,
    max_n: int | None = None,
    *,
    cap: int = DEFAULT_CAP,
) -> Iterator[CensusReport]:
    """Exhaustive sweep of the adjacent-rank chain and the shape reduction.

    For every tuple x of length max_n+1 and every legal shape, checks the
    five adjacent-rank implications and that the fast rank-bound test
    agrees with the direct one.  Each check reports its violation count
    against an expected 0.
    """
    started = time.perf_counter()
    q = field.order
    bound = max_n if max_n is not None else _lemma_bound(q)
    _check_cap(q ** (bound + 1), cap)
    names = (
        "adjacent-rank/tall-le-wide",
        "adjacent-rank/wide-le-tall",
        "adjacent-rank/equal",
        "adjacent-rank/saturated",
        "adjacent-rank/bound-equivalence",
        "rank-bound-reduction",
    )
    violations = dict.fromkeys(names, 0)
    instances = dict.fromkeys(names, 0)
    firsts: dict[str, str] = {}
    kern = _rank_kernel(field)
    shapes = [
        (p_, q_)
        for p_ in range(bound + 2)
        for q_ in range(bound + 2 - p_)
    ]
    reductions = [
        (m, n, r)
        for m in range(bound + 1)
        for n in range(bound + 1 - m)
        for r in range(min(m, n) + 1)
    ]
    for codes in itertools.product(range(q), repeat=bound + 1):
        ranks: dict[tuple[int, int], int] = {}

        def rank_of(rd: int, cd: int) -> int:
            if rd < 0 or cd < 0:
                return 0
            got = ranks.get((rd, cd))
            if got is None:
                got = kern(_hankel_code_rows(codes, rd, cd), min(rd, cd) + 1)
                ranks[(rd, cd)] = got
            return got

        def flag(name: str, where: str) -> None:
            violations[name] += 1
            firsts.setdefault(name, where)

        for p_, q_ in shapes:
            tall = rank_of(p_, q_ - 1)
            wide = rank_of(p_ - 1, q_)
            where = f"shape=({p_},{q_}) x={codes}"
            if tall <= p_:
                instances["adjacent-rank/tall-le-wide"] += 1
                if tall > wide:
                    flag("adjacent-rank/tall-le-wide", where)
            if wide <= q_:
                instances["adjacent-rank/wide-le-tall"] += 1
                if wide > tall:
                    flag("adjacent-rank/wide-le-tall", where)
            if tall <= p_ and wide <= q_:
                instances["adjacent-rank/equal"] += 1
                if tall != wide:
                    flag("adjacent-rank/equal", where)
            if tall > p_:
                instances["adjacent-rank/saturated"] += 1
                if wide != p_:
                    flag("adjacent-rank/saturated", where)
            for r in range(min(p_, q_)):  # r+1 <= p and r+1 <= q
                instances["adjacent-rank/bound-equivalence"] += 1
                if (tall <= r) != (wide <= r):
                    flag("adjacent-rank/bound-equivalence", f"r={r} {where}")
        x = SeqTuple.from_codes(field, codes)
        for m, n, r in reductions:
            instances["rank-bound-reduction"] += 1
            direct = rank_of(m, n) <= r
            if rank_le_fast(x, m, n, r) != direct:
                flag("rank-bound-reduction", f"m={m} n={n} r={r} x={codes}")
    for name in names:
        params = {"max_n": bound, "instances": instances[name], "unit": "violations"}
        if name in firsts:
            params["first_violation"] = firsts[name]
        yield _timed(name, field, params, 0, violations[name], "brute", started)


_GADGET_WORK_LIMIT = 300_000


def _gadget_bounds(q: int) -> tuple[int, int] | None:
    # (max m, max n) for the exhaustive gadget sweeps, scaled so that the
    # dominant sweep (all v of length m+1 times all q^(m+n+1) tuples)
    # stays desk-scale; None means even the smallest grid is too big
    for m, n in ((3, 2), (2, 2), (2, 1), (1, 1), (1, 0)):
        if (q - 1) * q**m * q ** (m + n + 1) <= _GADGET_WORK_LIMIT:
            return m, n
    return None


class _NoGadgetGrid(CapExceededError):
    # even the smallest default grid is over the work limit, which --cap
    # does not lift; an explicit max_n (--max-n) picks a grid instead
    def __init__(self, field: FieldSpec):
        q = field.order
        super().__init__((q - 1) * q * q**2, _GADGET_WORK_LIMIT)
        self.args = (
            f"no default grid fits {field}: the smallest needs {self.required} "
            f"steps, over the limit of {self.cap}; --max-n picks one",
        )


def _gadget_bounds_or_raise(field: FieldSpec, max_n: int | None) -> tuple[int, int]:
    if max_n is not None:
        return min(3, max_n), min(2, max_n)
    bounds = _gadget_bounds(field.order)
    if bounds is None:
        raise _NoGadgetGrid(field)
    return bounds


@_suite
def suite_identities(
    field: FieldSpec,
    max_n: int | None = None,
    *,
    cap: int = DEFAULT_CAP,
) -> Iterator[CensusReport]:
    """Instance-wise checks of the two kernel-counting identities.

    The summed identity is checked for every prefix of length k <= min(m,
    n+1); its left side is what `witness.sumlast_sides` returns.
    """
    q = field.order
    started = time.perf_counter()
    if max_n is not None:
        n_hi = max_n
    else:
        n_hi = 3 if q == 2 else 2 if q == 3 else 1 if q <= 7 else 0
    bad = 0
    instances = 0
    first = None
    for n in range(n_hi + 1):
        for m in range(n + 2):
            _check_cap(q ** (m + n + 1), cap)
            for x in iter_seq_tuples(field, m + n + 1):
                lhs, rhs = elkies_identity_sides(x, m, n)
                instances += 1
                if lhs != rhs:
                    bad += 1
                    first = first or f"m={m} n={n} x={x.codes} sides=({lhs},{rhs})"
    params = {"max_n": n_hi, "instances": instances, "unit": "violations"}
    if first:
        params["first_violation"] = first
    yield _timed("annihilator-count-identity", field, params, 0, bad, "brute", started)
    started = time.perf_counter()
    m_hi, n2_hi = _gadget_bounds_or_raise(field, max_n)
    bad = 0
    instances = 0
    first = None
    for m in range(1, m_hi + 1):
        for n in range(n2_hi + 1):
            _check_cap(q ** (m + n + 1), cap)
            # one running sum per finest prefix block, read base Q
            top = min(m, n + 1)
            width = q ** (m + n + 1 - top)
            sums = [0] * q**top
            for i, x in enumerate(itertools.product(range(q), repeat=m + n + 1)):
                sums[i // width] += _annihilator_term(field, x, m, n)[2]
            levels = [sums]  # levels[k][b]: the side of the k-prefix with value b
            while len(levels[0]) > 1:
                finer = levels[0]
                levels.insert(0, [sum(finer[b : b + q]) for b in range(0, len(finer), q)])
            for k, level in enumerate(levels):
                rhs = (q - 1) * q ** (2 * m - k)
                for a, lhs in zip(iter_seq_tuples(field, k), level):
                    instances += 1
                    if lhs != rhs:
                        bad += 1
                        first = first or f"m={m} n={n} a={a} sides=({lhs},{rhs})"
    params = {"max_m": m_hi, "max_n": n2_hi, "instances": instances, "unit": "violations"}
    if first:
        params["first_violation"] = first
    yield _timed("annihilator-sum-identity", field, params, 0, bad, "brute", started)


@_suite
def suite_witnesses(
    field: FieldSpec,
    max_n: int | None = None,
    *,
    cap: int = DEFAULT_CAP,
) -> Iterator[CensusReport]:
    """Exhaustive checks of the constructive gadgets.

    Covers: solve_tail outputs are exactly the annihilating tuples and
    number Q^(m-k) per prefix; the trailing-zero truncation map is a
    bijection; alpha and beta are mutually inverse between F x {strongly
    nice} and {weakly nice}; the freed entry is unconstrained; and the
    weak/strong counts differ by a factor of exactly Q.

    Each bijection and closure check is an instance once per prefix
    length k <= n+1, with the tuple's own k-prefix a = x[:k] as context.
    The gadgets and predicates reach a only through the prefix test
    entries[:k] == a.  So if the gadgets hand back the tuple s, a check's
    outcome at k is E and s[:k] == x[:k], where E does not depend on k,
    and a pass at k = n+1 is a pass at every k.  Each nice tuple is
    therefore checked once, at k = n+1, and counts n+2 instances; one that
    fails there is checked again at each k, so violation counts and the
    first violation named are those of one check per prefix.  The closure
    tests mutate x_(j+n+1), which lies past every prefix, and read the
    flags.
    """
    q = field.order
    m_hi, n_hi = _gadget_bounds_or_raise(field, max_n)
    # the sweeps below test every tuple once per gadget vector: the tail
    # solver against (q-1)*q^m of them, the bijections against q^m - 1 of
    # them on two views each
    _check_cap(
        sum(
            ((q - 1) * q**m + 2 * (q**m - 1)) * q ** (m + n + 1)
            for m in range(m_hi + 1)
            for n in range(n_hi + 1)
        ),
        cap,
    )
    firsts: dict[str, str] = {}

    def flag(name: str, counts: dict, where: str) -> None:
        counts[name] += 1
        firsts.setdefault(name, where)

    # tail solver: one oracle sweep per v gives the whole solution set
    started = time.perf_counter()
    bad = dict.fromkeys(("tail-solver-annihilation", "tail-solver-count"), 0)
    inst_solve = 0
    inst_count = 0
    for m in range(m_hi + 1):
        for n in range(n_hi + 1):
            length = m + n + 1
            all_codes = list(itertools.product(range(q), repeat=length))
            for vtail in itertools.product(range(q), repeat=m):
                for vlast in range(1, q):
                    vcodes = vtail + (vlast,)
                    v = RowVector.from_codes(field, vcodes)
                    flags = _annihilation_flags(field, vcodes, n + 1, length)
                    solutions = set(itertools.compress(all_codes, flags))
                    constructed = set()
                    for head in iter_seq_tuples(field, m):
                        out = solve_tail(v, head, n)
                        inst_solve += 1
                        if out.codes not in solutions:
                            flag(
                                "tail-solver-annihilation",
                                bad,
                                f"v={vcodes} head={head.codes}",
                            )
                        constructed.add(out.codes)
                    if constructed != solutions:
                        flag("tail-solver-annihilation", bad, f"v={vcodes} m={m} n={n}")
                    for k in range(m + 1):
                        buckets: dict[tuple[int, ...], int] = {}
                        for sol in solutions:
                            key = sol[:k]
                            buckets[key] = buckets.get(key, 0) + 1
                        inst_count += q**k
                        expected = q ** (m - k)
                        if len(buckets) != q**k or any(
                            c != expected for c in buckets.values()
                        ):
                            flag("tail-solver-count", bad, f"v={vcodes} m={m} n={n} k={k}")
    params = {"max_m": m_hi, "max_n": n_hi, "instances": inst_solve, "unit": "violations"}
    if "tail-solver-annihilation" in firsts:
        params["first_violation"] = firsts["tail-solver-annihilation"]
    yield _timed(
        "tail-solver-annihilation", field, params, 0, bad["tail-solver-annihilation"], "brute", started
    )
    params = {"max_m": m_hi, "max_n": n_hi, "instances": inst_count, "unit": "violations"}
    if "tail-solver-count" in firsts:
        params["first_violation"] = firsts["tail-solver-count"]
    yield _timed("tail-solver-count", field, params, 0, bad["tail-solver-count"], "brute", started)

    # truncation map bijection
    started = time.perf_counter()
    bad_trunc = 0
    inst = 0
    first_trunc = None
    for m in range(1, m_hi + 1):
        image = set()
        for vtail in itertools.product(range(q), repeat=m):
            v = RowVector.from_codes(field, vtail + (0,))
            w = R_map(v)
            inst += 1
            if R_inv(w) != v:
                bad_trunc += 1
                first_trunc = first_trunc or f"v={vtail + (0,)}"
            if any(vtail):
                image.add(w.codes)
        nonzero_small = {c for c in itertools.product(range(q), repeat=m) if any(c)}
        if image != nonzero_small:
            bad_trunc += 1
            first_trunc = first_trunc or f"image mismatch at m={m}"
    params = {"max_m": m_hi, "instances": inst, "unit": "violations"}
    if first_trunc:
        params["first_violation"] = first_trunc
    yield _timed("truncation-bijection", field, params, 0, bad_trunc, "brute", started)

    # alpha/beta bijection, count ratio, freed-entry closure.  The nice
    # tuples of each (v, prefix) are one block of the sweeps' flags; a
    # check that passes at the longest prefix, k = n+1, passes at every k
    started = time.perf_counter()
    bad = dict.fromkeys(
        ("free-entry-bijection", "weak-strong-count-ratio", "free-entry-closure"), 0
    )
    inst_bij = 0
    inst_ratio = 0
    inst_closure = 0

    # alpha and beta refuse tuples that are not nice, which only a wrong
    # flag can hand them: count it as a miss
    def weak_ok(ctx: NiceContext, x: SeqTuple) -> bool:
        try:
            y, s = beta(x, ctx)
            return is_strongly_nice(s, ctx) and alpha(y, s, ctx) == x
        except ValueError:
            return False

    def strong_ok(ctx: NiceContext, s: SeqTuple, y) -> bool:
        try:
            x2 = alpha(y, s, ctx)
            return is_weakly_nice(x2, ctx) and beta(x2, ctx) == (y, s)
        except ValueError:
            return False

    for m in range(1, m_hi + 1):
        for n in range(n_hi + 1):
            length = m + n + 1
            all_codes = list(itertools.product(range(q), repeat=length))
            for vtail in itertools.product(range(q), repeat=m):
                if not any(vtail):
                    continue
                v = RowVector.from_codes(field, vtail + (0,))
                weak_flags = _annihilation_flags(field, v.codes, n + 1, length)
                strong_flags = _annihilation_flags(field, vtail, n + 2, length)
                weak = list(itertools.compress(range(len(weak_flags)), weak_flags))
                strong = list(itertools.compress(range(len(strong_flags)), strong_flags))
                ctxs: dict[tuple[int, ...], NiceContext] = {}

                def where(k: int, i: int) -> str:
                    return f"v={v.codes} a={all_codes[i][:k]} m={m} n={n}"

                def context(k: int, i: int) -> NiceContext:
                    a = all_codes[i][:k]
                    ctx = ctxs.get(a)
                    if ctx is None:
                        ctx = ctxs[a] = NiceContext(field, m, n, v, SeqTuple.from_codes(field, a))
                    return ctx

                for k in range(n + 2):
                    size = q ** (length - k)
                    nweak = Counter(i // size for i in weak)
                    nstrong = Counter(i // size for i in strong)
                    for b in range(q**k):
                        inst_ratio += 1
                        if nweak[b] != q * nstrong[b]:
                            flag("weak-strong-count-ratio", bad, where(k, b * size))

                misses = []  # (k, prefix, side, tuple, y) of each bijection miss

                def bijection(test, args, side: int, i: int, c: int) -> None:
                    if test(context(n + 1, i), *args):
                        return
                    for k in range(n + 2):
                        if k == n + 1 or not test(context(k, i), *args):
                            misses.append((k, i // q ** (length - k), side, i, c))

                pos = max(t for t, c in enumerate(vtail) if c) + n + 1
                step = q ** (length - 1 - pos)
                for i in weak:
                    inst_bij += n + 2
                    bijection(weak_ok, (SeqTuple.from_codes(field, all_codes[i]),), 0, i, 0)
                    # x with x_pos := c has index base + c*step; x_pos is
                    # past every prefix, so the result holds at every k
                    base = i - all_codes[i][pos] * step
                    missed = sum(not weak_flags[base + c * step] for c in range(q))
                    inst_closure += (n + 2) * q
                    if missed:
                        flag("free-entry-closure", bad, f"{where(0, i)} x={all_codes[i]}")
                        bad["free-entry-closure"] += (n + 2) * missed - 1
                for i in strong:
                    s = SeqTuple.from_codes(field, all_codes[i])
                    for c, y in enumerate(field.elements()):
                        inst_bij += n + 2
                        bijection(strong_ok, (s, y), 1, i, c)
                # in the order of one check per prefix: weak tuples before
                # strong ones within each (k, prefix) block
                for k, _, _, i, _ in sorted(misses):
                    flag("free-entry-bijection", bad, f"{where(k, i)} x={all_codes[i]}")
    # the zero windows are cached per vector across n; free them with the suite
    _window_successors.cache_clear()
    for name, count in (
        ("free-entry-bijection", inst_bij),
        ("weak-strong-count-ratio", inst_ratio),
        ("free-entry-closure", inst_closure),
    ):
        params = {"max_m": m_hi, "max_n": n_hi, "instances": count, "unit": "violations"}
        if name in firsts:
            params["first_violation"] = firsts[name]
        yield _timed(name, field, params, 0, bad[name], "brute", started)


def _prefix_family(field, m, n, r, k, formula, cap):
    """Brute counts over all k-prefixes; spots the first formula miss.

    Returns (observed, extra_params, total): observed is the common count
    when every prefix matches the formula, otherwise the first deviating
    count with its prefix recorded in extra_params.
    """
    first_bad = None
    total = 0
    for a in iter_seq_tuples(field, k):
        got = brute_count_rank_le(CountQuery(field, m, n, r, a), cap)
        total += got
        if got != formula and first_bad is None:
            first_bad = (str(a), got)
    if first_bad is not None:
        return first_bad[1], {"prefix": first_bad[0]}, total
    return formula, {}, total


@_suite
def suite_theorems(
    field: FieldSpec,
    max_n: int | None = None,
    *,
    cap: int = DEFAULT_CAP,
) -> Iterator[CensusReport]:
    """Formula-vs-oracle sweeps for all counting laws on a small grid."""
    q = field.order
    if max_n is not None:
        bound = max_n
    else:
        bound = 3 if q <= 4 else 2 if q <= 9 else 1 if q <= 30 else 0
    # prefix-fixed and unrestricted rank-bound counts
    for n in range(bound + 1):
        for m in range(n + 1):
            for r in range(m + 1):
                for k in range(r + 1):
                    started = time.perf_counter()
                    formula = q ** (2 * r - k)
                    observed, extra, total = _prefix_family(field, m, n, r, k, formula, cap)
                    check = "unrestricted-count" if k == 0 else "prefix-fixed-count"
                    params = {"m": m, "n": n, "r": r, "k": k}
                    yield _timed(
                        check, field, {**params, **extra}, formula, observed, "brute", started
                    )
                    if k > 0:
                        yield _timed(
                            "prefix-count-consistency",
                            field,
                            params,
                            q ** (2 * r),
                            total,
                            "brute",
                            started,
                        )
    # full-width range r = m = n+1
    for m in range(1, bound + 1):
        n = m - 1
        for k in range(m + 1):
            started = time.perf_counter()
            formula = q ** (m + n + 1 - k)
            observed, extra, _ = _prefix_family(field, m, n, m, k, formula, cap)
            params = {"m": m, "n": n, "r": m, "k": k, **extra}
            yield _timed("full-width-count", field, params, formula, observed, "brute", started)
    # rank-exact census against the piecewise formula, branch by branch
    census_bound = bound if q <= 3 else min(bound, 2 if q <= 9 else 1)
    for n in range(census_bound + 1):
        for m in range(n + 1):
            started = time.perf_counter()
            dist = brute_census(field, m, n, None, cap)
            for r in range(m + 3):
                yield _timed(
                    "rank-exact-census",
                    field,
                    {"m": m, "n": n, "r": r},
                    count_rank_eq_formula(field, m, n, r),
                    dist.counts.get(r, 0),
                    "brute",
                    started,
                )
            yield _timed(
                "census-total",
                field,
                {"m": m, "n": n},
                q ** (m + n + 1),
                dist.total,
                "brute",
                started,
            )
    # determinant-vanishing counts
    det_bound = min(2 if q <= 3 else 1, bound)
    for n in range(det_bound + 1):
        for k in range(n + 1):
            started = time.perf_counter()
            formula = count_det_zero_formula(field, n, k)
            observed, extra, _ = _prefix_family(field, n, n, n, k, formula, cap)
            params = {"n": n, "k": k, **extra}
            yield _timed("det-zero-count", field, params, formula, observed, "brute", started)


@_suite
def suite_jt(
    field: FieldSpec,
    max_n: int | None = None,
    *,
    cap: int = DEFAULT_CAP,
) -> Iterator[CensusReport]:
    """Jacobi-Trudi singular counts via both the flip and the determinant."""
    q = field.order
    if max_n is not None:
        weight = max_n
    else:
        weight = 6 if q <= 3 else 4 if q <= 9 else 2
    for total in range(1, weight + 1):
        for u in range(1, total + 1):
            v = total + 1 - u
            # each count report times its own path; the agreement, both
            started = time.perf_counter()
            formula = count_jt_singular_formula(field, u, v)
            flip = brute_count_jt_singular(field, u, v, cap, path="flip")
            params = {"u": u, "v": v}
            yield _timed("jt-singular-count-flip", field, params, formula, flip, "brute", started)
            direct_started = time.perf_counter()
            direct = brute_count_jt_singular(field, u, v, cap, path="direct")
            yield _timed(
                "jt-singular-count-direct", field, params, formula, direct, "brute", direct_started
            )
            yield _timed("jt-path-agreement", field, params, flip, direct, "brute", started)


_SUITE_FUNCS = {
    "lemmas": suite_lemmas,
    "identities": suite_identities,
    "witnesses": suite_witnesses,
    "theorems": suite_theorems,
    "jt": suite_jt,
}


def _skip_if_empty(report: CensusReport) -> CensusReport:
    if report.verdict == "match" and report.params.get("instances") == 0:
        return replace(report, verdict="skipped")
    return report


def verify(
    suite: str,
    fields: Sequence[FieldSpec],
    *,
    max_n: int | None = None,
    cap: int = DEFAULT_CAP,
) -> list[CensusReport]:
    """Run one suite (or "all") over the given fields.

    Returns one report per checked instance family.  A family with no
    instances in the grid checked nothing, so its report has verdict
    "skipped", not "match", and a suite with no family in the grid gets
    one "skipped" report of its own.  A suite that hits the cap keeps the
    reports it finished and ends with one report of verdict "skipped"
    instead of raising.
    """
    if max_n is not None and max_n < 0:
        raise ValueError(f"need max_n >= 0, got {max_n}")
    if suite == "all":
        names = SUITES
    elif suite in _SUITE_FUNCS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; pick one of {('all',) + SUITES}")
    reports: list[CensusReport] = []
    for field in fields:
        for name in names:
            try:
                done = _SUITE_FUNCS[name](field, max_n, cap=cap)
                reason = None if done else "no instance in the grid"
            except CapExceededError as exc:
                done, reason = exc.reports, str(exc)
            reports.extend(map(_skip_if_empty, done))
            if reason is not None:
                reports.append(
                    CensusReport(name, field, {"reason": reason}, "brute", None, None, "skipped", 0.0)
                )
    return reports
