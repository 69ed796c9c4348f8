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
elimination on the reduced view (hankel._lockstep_rank_le), which
pivots every trial's view on its diagonal with one list comprehension
per entry over the whole batch.  A view that meets a zero pivot is
decided on its own, so the count is exactly that of one rank test per
trial.

The exhaustive counter walks the prefix tree of the tuple depth first.  It
reads the Hankel view in whichever orientation has the shorter columns,
with nrows entries per column, so that entry x_t completes column
t-nrows+1, and keeps K, the left kernel of the finished columns, whose
nrows - rank vectors are stored as those with last entry 0 and at most
one, w, with last entry 1.  e_last is in the span of the columns exactly
when w is absent.  With x_t = y the new column is c0 + y*e_last, and y
keeps the rank iff every u in K has u*c0 + y*u_last = 0.  So no value
keeps it if some last-0 vector u has u*c0 != 0, and otherwise exactly
-(w*c0) does (w then exists: with e_last and c0 both in the span, the
shift (u', 0) -> (0, u') would map K into itself, injectively and
nilpotently, so K would be 0).  The values that raise the rank share one pivot: the first
last-0 vector with a nonzero dot, whose update of the other last-0
vectors does not depend on y, while w takes one axpy per value; or,
when there is none, w itself, which is dropped.  A node takes its dots
only up to the first nonzero one unless it builds the new K.  Whole
subtrees are tallied without being visited, exactly: once the rank
exceeds the limit asked for, or reaches nrows, every completion has that
rank.  A free last entry is settled in its parent, the node of the entry
before it, with no dot product for the values that raise the rank: each
of their children keeps one last value when the pivot was the only
last-0 vector, and none otherwise (a degree argument in _walk_block).
The child of the value that keeps the rank takes one pass over K.  Fixed
entries are walked as one-value entries, so the Jacobi-Trudi flip count
is a prefix-fixed walk too.

The walk is split into blocks that fix the first few free entries, and
_walk_block walks each as a longer head.  A head with a nonzero entry is
one block, the empty one.  Under an all-zero head the tallies are the
same on every orbit of the scaling x -> c*x, the torus x_t -> b^t*x_t
and the binomial translation of _walk_blocks, so the walk visits one
representative completion set per class.  For each position s of the
first nonzero entry it sets x_s = 1 and x_{s+1} = 0, weighted q(q-1),
or, when p divides s+1, weighted q-1 beside the block x_{s+1} = 1,
weighted (q-1)^2.  Where x_{s+2} is free, each x_{s+1} = 0 block is
split by the square class of x_{s+2}.  The last position is the one
block x_s = 1, weighted q-1, and the all-zero completion is a block of
its own.  The cap is charged Q^(free) before the walk starts, an upper
bound on the tuples it visits.

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
sum of the term over its completions.  The cap is charged
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
from typing import Iterator, NamedTuple, Sequence

from hankelcensus.gf import FieldSpec
from hankelcensus.hankel import (
    RowVector,
    SeqTuple,
    _hankel_code_rows,
    _lockstep_rank_le,
    _rank_codes,
    det,
    iter_seq_tuples,
    jt_matrix,
)
from hankelcensus.ranklaw import _annihilator_term, rank_le_fast
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
    elapsed_s: float = 0.0,
) -> CensusReport:
    """Build a report, deciding the verdict from the two values.

    A MonteCarloEstimate passes within four standard errors of the target
    probability `formula`; exact values match when equal, and a missing
    one gives no verdict.
    """
    if isinstance(observed, MonteCarloEstimate):
        diff = abs(observed.estimate - formula)
        within = diff == 0 or float(diff) <= 4.0 * target_stderr(formula, observed.trials)
        verdict = "estimate-within-tolerance" if within else "mismatch"
    elif formula is None or observed is None:
        verdict = None
    else:
        verdict = "match" if formula == observed else "mismatch"
    return CensusReport(check, field, params, formula, observed, verdict, elapsed_s)


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


def _non_square(spec: FieldSpec) -> int:
    """The first code nu with nu^((q-1)/2) != 1, a non-square of odd q."""
    half = (spec.order - 1) // 2
    return next(c for c in range(2, spec.order) if spec._pow_code_raw(c, half) != 1)


def _walk_blocks(
    spec: FieldSpec, head: Sequence[int], free: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The walk's blocks of fixed first free entries, and their weights.

    A head with a nonzero entry, or no free entry, is one empty block of
    weight 1: _walk_block enumerates every free entry itself.  Under an
    all-zero head there is one block per class of completion sets that a
    rank-keeping bijection maps onto one another, weighted by the size of
    the class.  A block fixes len(block) free entries, so the sum of
    weight * q^(free - len(block)) over the blocks is q^free.
    """
    if not free or any(head):
        return [()], [1]
    q, p = spec.order, spec.p
    # Three kinds of maps are bijections on the completions of a zero head
    # that keep the rank of every view.  x -> c*x scales each view by c.
    # x_t -> b^t*x_t turns a view H into D H D' with D, D' = diag(b^i).
    # The translation y_t = sum_k C(t,k)*lam^(t-k)*x_k gives
    # H(y) = P H(x) Q^T by Vandermonde's identity, with P = (C(i,a) *
    # lam^(i-a)) and Q alike, both unit lower triangular; it keeps the
    # zeros before the first nonzero entry x_s and moves x_{s+1} by
    # (s+1)*lam*x_s.  Sort the nonzero completions by x_s = a, at free
    # position j (so s = len(head) + j), and x_{s+1} = a'.  c = 1/a sets
    # x_s = 1.  When p does not divide s+1, lam = -a'/(s+1) then sets
    # x_{s+1} = 0, so all q(q-1) classes (a, a') share the tallies of
    # block (0^j, 1, 0).  When p | s+1, (c, b) = (1/a, 1) maps class
    # (a, 0) onto (1, 0), and b = a/a', c = 1/(a*b^s) maps (a, a') onto
    # (1, 1): blocks (0^j, 1, 0) and (0^j, 1, 1), weighted q-1 and
    # (q-1)^2.  Within class (1, 0), c = b^(-s) keeps x_s = 1 and
    # x_{s+1} = 0 and scales x_{s+2} by b^2.  So where x_{s+2} is free,
    # a (1, 0) block splits by the square class of x_{s+2}: 0, 1 and a
    # non-square nu, of sizes 1, (q-1)/2 and (q-1)/2, for odd q; 0 and
    # 1, of sizes 1 and q-1, for p = 2, where every element is a square.
    # When x_s is the last entry, the q-1 classes a share block (0^j, 1).
    # The all-zero completion is a block of its own, at rank 0
    if free < 3:
        split = []
    elif p == 2:
        split = [(0, 1), (1, q - 1)]
    else:
        split = [(0, 1), (1, (q - 1) // 2), (_non_square(spec), (q - 1) // 2)]
    blocks, weights = [(0,) * free], [1]
    for j in range(free):
        one = (0,) * j + (1,)
        if j + 1 == free:
            blocks.append(one)
            weights.append(q - 1)
            continue
        weight = q * (q - 1)
        if (len(head) + j + 1) % p == 0:
            weight = q - 1
            blocks.append(one + (1,))
            weights.append((q - 1) ** 2)
        if j + 2 == free:
            blocks.append(one + (0,))
            weights.append(weight)
        else:
            blocks += [one + (0, c) for c, _ in split]
            weights += [weight * size for _, size in split]
    return blocks, weights


def _walk_block(
    spec: FieldSpec,
    head: Sequence[int],
    free: int,
    shape: tuple[int, int],
    limit: int,
) -> list[int]:
    """Rank tallies over all completions of head by `free` entries, in one walk.

    tallies[rho] counts completions whose (rdeg, cdeg) = shape view has
    rank rho; ranks above limit land in tallies[limit + 1].

    The walk goes depth first over the tuple prefix tree and keeps the left
    kernel of the view's finished columns, as the vectors with last entry 0
    and at most one with last entry 1.  It gives each head entry one value,
    and settles a free last entry in the node of the entry before it.
    """
    q = spec.order
    # rank is transpose-invariant: walk the orientation with shorter columns
    nrows, ncols = sorted((shape[0] + 1, shape[1] + 1))
    limit = min(limit, nrows)
    stop = min(limit + 1, nrows)  # a rank that settles every completion
    last = nrows + ncols - 2  # index of the last entry
    fixed = len(head)
    settle = last - 1 if fixed <= last else -1  # the node that settles the last entry
    ops = spec.ops
    sub_mul, dot, mul, inv, neg, add = ops.sub_mul, ops.dot, ops.mul, ops.inv, ops.neg, ops.add
    tallies = [0] * (limit + 2)
    x = list(head) + [0] * free

    def walk(t: int, zeros: list, w: list | None) -> None:
        # x[:t] is set.  The left kernel K of the finished columns has the
        # basis zeros, whose vectors end in 0, and w, which ends in 1, or
        # no w when e_last is in their span; rank = nrows - |K| < stop.
        # x_t completes column t - nrows + 1, c0 + y*e_last for x_t = y
        rank = nrows - len(zeros) - (w is not None)
        values = (head[t],) if t < fixed else range(q)
        if t < nrows - 1:
            for y in values:
                x[t] = y
                walk(t + 1, zeros, w)
            return
        x[t] = 0
        c0 = x[t - nrows + 1 : t + 1]
        # u*c(y) is u*c0 for u in zeros, and w*c0 + y for w.  So no value
        # keeps the rank if some u*c0 != 0, and else only -(w*c0) does.
        # Then w exists: were e_last and c0 both in the span, the shift
        # (u', 0) -> (0, u') would map K into K, as u*c0 = 0 covers the
        # new column's first nrows - 1 entries.  It is injective and
        # nilpotent, so K would be 0, but rank < nrows
        for i, u in enumerate(zeros):
            d = dot(u, c0)
            if d:
                keep = None
                break
        else:
            i, keep = -1, neg(dot(w, c0))
        kept = keep is not None and keep in values
        raised = len(values) - kept
        if t == last:  # a fixed last entry, or the 1 x 1 view
            tallies[rank] += kept
            tallies[rank + 1] += raised
            return
        if t == settle:
            if kept:  # the child keeps K: one last value keeps its rank, or none
                x[t] = keep
                window = x[t - nrows + 2 : t + 1] + [0]
                if any(dot(u, window) for u in zeros):
                    tallies[rank + 1] += q
                else:
                    tallies[rank] += 1
                    tallies[rank + 1] += q - 1
            if rank + 1 == stop:
                tallies[stop] += raised * q
                return
            # A raising child keeps one last value iff its K has w and its
            # vectors ending in 0 vanish on its window.  Pivoting on w
            # leaves no w.  Pivoting on p = zeros[i] leaves w and the new
            # zeros, which all vanish there only if there are none.  Read
            # u as the polynomial sum u_k X^k and u*c_j as L(X^j u); x_t
            # completes column J = t - nrows + 1 >= nrows - 2.  p vanishes
            # on c_0 .. c_(J-1) but not on c_J, and each u in the new zeros
            # on c_0 .. c_J.  So deg u < deg p for u != 0: else
            # L(X^(J - deg u) p u) would be u's leading coefficient times
            # L(X^J p) by u's coefficients, and 0 by p's.  Were every
            # L(X^(J+1) u) 0, X*u would be in the new zeros too, as its
            # degree is at most deg p <= nrows - 2; for u of highest degree
            # it is not
            hits = raised if i >= 0 and len(zeros) == 1 else 0
            tallies[rank + 1] += hits
            tallies[rank + 2] += raised * q - hits
            return
        if kept:
            x[t] = keep
            walk(t + 1, zeros, w)
        if rank + 1 == stop:  # each raising value settles its subtree
            tallies[stop] += raised * q ** (last + 1 - max(t + 1, fixed))
            return
        if i < 0:  # pivot on w: the raising values share K without w
            for y in values:
                if y != keep:
                    x[t] = y
                    walk(t + 1, zeros, None)
            return
        # pivot on zeros[i], whose dot d does not depend on y: the other
        # vectors of zeros take the same update for every value, and w
        # takes one axpy per value, with w*c(y) = w*c0 + y
        piv, s = zeros[i], inv(d)
        grown = zeros[:i] + [
            sub_mul(u, mul(e, s), piv) if (e := dot(u, c0)) else u for u in zeros[i + 1 :]
        ]
        if w is None:
            for y in values:
                x[t] = y
                walk(t + 1, grown, None)
            return
        wd = dot(w, c0)
        for y in values:
            x[t] = y
            walk(t + 1, grown, sub_mul(w, mul(add(wd, y), s), piv))

    walk(0, [[int(i == j) for i in range(nrows)] for j in range(nrows - 1)], [0] * (nrows - 1) + [1])
    del walk  # it refers to itself: free it, x and the kernels now, not in a gc pass
    return tallies


def _tally_ranks(
    spec: FieldSpec,
    head: Sequence[int],
    free: int,
    shape: tuple[int, int],
    limit: int,
    cap: int,
) -> list[int]:
    """Weighted sum of the _walk_block tallies over the blocks of _walk_blocks.

    Each block is walked as a longer head.  The cap is charged Q^(free).
    """
    _check_cap(spec.order**free, cap)
    blocks, weights = _walk_blocks(spec, head, free)
    head = tuple(head)
    parts = [_walk_block(spec, head + b, free - len(b), shape, limit) for b in blocks]
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

    path="flip" (default) walks the upside-down Hankel reduction x_t =
    y_(u-v+1+t), y_0 = 1, as the rank bound v-1 on the (v-1, v-1) view: the
    head is v-u-1 zeros and a 1 for u < v; for u >= v it is empty and
    y_1 .. y_(u-v) are unused, a factor Q^(u-v).  path="direct" takes the
    determinant of every tuple's Jacobi-Trudi matrix, the independent route.
    Either path charges the cap Q^(u+v-1).
    """
    if u < 1 or v < 1:
        raise ValueError(f"need u >= 1 and v >= 1, got u={u}, v={v}")
    if path not in ("flip", "direct"):
        raise ValueError(f"unknown path {path!r}")
    q = field.order
    _check_cap(q ** (u + v - 1), cap)
    if path == "flip":
        head = (0,) * (v - u - 1) + (1,) if u < v else ()
        tallies = _tally_ranks(field, head, 2 * v - 1 - len(head), (v - 1, v - 1), v - 1, cap)
        return sum(tallies[:v]) * q ** max(u - v, 0)
    zero = field.zero
    return sum(det(jt_matrix(y, u, v)) == zero for y in iter_seq_tuples(field, u + v - 1))


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
    (hankel._lockstep_rank_le) on the reduced view, which gives exactly
    the count that one rank test per trial would.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    spec = query.field
    m, n, r = query.m, query.n, query.r
    free = query.tuple_len - query.k
    rdeg, cdeg = _test_shape(m, n, r)
    head = list(query.prefix.codes)
    base_key = _mix64(rng_seed & _MASK64)
    successes = 0
    for lo in range(0, trials, _MC_BATCH):
        batch = [
            head + _draw_codes(spec, _mix64((base_key + t * _GOLDEN) & _MASK64), free)
            for t in range(lo + 1, min(lo + _MC_BATCH, trials) + 1)
        ]
        successes += _lockstep_rank_le(spec.ops, batch, rdeg, cdeg, r)
    p_hat = successes / trials
    stderr = sqrt(p_hat * (1.0 - p_hat) / trials)
    return MonteCarloEstimate(Fraction(successes, trials), stderr, successes, trials)


# ----------------------------------------------------------------------
# Verification suites
# ----------------------------------------------------------------------


def _timed(check, field, params, formula, observed, started) -> CensusReport:
    return make_report(
        check,
        field,
        params,
        formula=formula,
        observed=observed,
        elapsed_s=time.perf_counter() - started,
    )


class _Family:
    """Tally of one violation family: instances checked, violations, the first.

    Its clock starts when it is made.  A family expects 0 violations, and
    one that checked no instance checked nothing, so it reports "skipped",
    not "match".
    """

    def __init__(self, check: str, field: FieldSpec, **grid):
        self.check = check
        self.field = field
        self.grid = grid
        self.instances = 0
        self.violations = 0
        self.first: str | None = None
        self.started = time.perf_counter()

    def miss(self, where: str, count: int = 1) -> None:
        self.violations += count
        if self.first is None:
            self.first = where

    def report(self) -> CensusReport:
        params = {**self.grid, "instances": self.instances, "unit": "violations"}
        if self.first is not None:
            params["first_violation"] = self.first
        report = _timed(self.check, self.field, params, 0, self.violations, self.started)
        if self.instances == 0 and report.verdict == "match":
            return replace(report, verdict="skipped")
        return report


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


def _lemma_bound(q: int) -> int:
    if q == 2:
        return 6
    if q == 3:
        return 4
    n = 1
    while n < 4 and q ** (n + 2) <= 1024:
        n += 1
    return n


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
    against an expected 0, or "skipped" when the grid has no instance of it.
    """
    q = field.order
    bound = max_n if max_n is not None else _lemma_bound(q)
    tall_le_wide, wide_le_tall, equal, saturated, equivalence, reduction = families = [
        _Family(name, field, max_n=bound)
        for name in (
            "adjacent-rank/tall-le-wide",
            "adjacent-rank/wide-le-tall",
            "adjacent-rank/equal",
            "adjacent-rank/saturated",
            "adjacent-rank/bound-equivalence",
            "rank-bound-reduction",
        )
    ]
    _check_cap(q ** (bound + 1), cap)
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
                got = _rank_codes(field, _hankel_code_rows(codes, rd, cd), min(rd, cd) + 1)
                ranks[(rd, cd)] = got
            return got

        for p_, q_ in shapes:
            tall = rank_of(p_, q_ - 1)
            wide = rank_of(p_ - 1, q_)
            where = f"shape=({p_},{q_}) x={codes}"
            if tall <= p_:
                tall_le_wide.instances += 1
                if tall > wide:
                    tall_le_wide.miss(where)
            if wide <= q_:
                wide_le_tall.instances += 1
                if wide > tall:
                    wide_le_tall.miss(where)
            if tall <= p_ and wide <= q_:
                equal.instances += 1
                if tall != wide:
                    equal.miss(where)
            if tall > p_:
                saturated.instances += 1
                if wide != p_:
                    saturated.miss(where)
            for r in range(min(p_, q_)):  # r+1 <= p and r+1 <= q
                equivalence.instances += 1
                if (tall <= r) != (wide <= r):
                    equivalence.miss(f"r={r} {where}")
        x = SeqTuple.from_codes(field, codes)
        for m, n, r in reductions:
            reduction.instances += 1
            direct = rank_of(m, n) <= r
            if rank_le_fast(x, m, n, r) != direct:
                reduction.miss(f"m={m} n={n} r={r} x={codes}")
    for family in families:
        yield family.report()


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
    n+1); its left side sums the kernel-counting term over the prefix's
    completions.  A family with no instance in the grid reports "skipped".
    """
    q = field.order
    if max_n is not None:
        n_hi = max_n
    else:
        n_hi = 3 if q == 2 else 2 if q == 3 else 1 if q <= 7 else 0
    family = _Family("annihilator-count-identity", field, max_n=n_hi)
    for n in range(n_hi + 1):
        for m in range(n + 2):
            _check_cap(q ** (m + n + 1), cap)
            for x in itertools.product(range(q), repeat=m + n + 1):
                full, _, rhs = _annihilator_term(field, x, m, n)
                lhs = (q - 1) * (full <= m)
                family.instances += 1
                if lhs != rhs:
                    family.miss(f"m={m} n={n} x={x} sides=({lhs},{rhs})")
    yield family.report()
    m_hi, n2_hi = _gadget_bounds_or_raise(field, max_n)
    family = _Family("annihilator-sum-identity", field, max_m=m_hi, max_n=n2_hi)
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
                    family.instances += 1
                    if lhs != rhs:
                        family.miss(f"m={m} n={n} a={a} sides=({lhs},{rhs})")
    yield family.report()


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
    flags.  A family with no instance in the grid reports "skipped".
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
    # tail solver: one oracle sweep per v gives the whole solution set
    solve = _Family("tail-solver-annihilation", field, max_m=m_hi, max_n=n_hi)
    count = _Family("tail-solver-count", field, max_m=m_hi, max_n=n_hi)
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
                        solve.instances += 1
                        if out.codes not in solutions:
                            solve.miss(f"v={vcodes} head={head.codes}")
                        constructed.add(out.codes)
                    if constructed != solutions:
                        solve.miss(f"v={vcodes} m={m} n={n}")
                    for k in range(m + 1):
                        buckets: dict[tuple[int, ...], int] = {}
                        for sol in solutions:
                            key = sol[:k]
                            buckets[key] = buckets.get(key, 0) + 1
                        count.instances += q**k
                        expected = q ** (m - k)
                        if len(buckets) != q**k or any(
                            c != expected for c in buckets.values()
                        ):
                            count.miss(f"v={vcodes} m={m} n={n} k={k}")
    yield solve.report()
    yield count.report()

    # truncation map bijection
    family = _Family("truncation-bijection", field, max_m=m_hi)
    for m in range(1, m_hi + 1):
        image = set()
        for vtail in itertools.product(range(q), repeat=m):
            v = RowVector.from_codes(field, vtail + (0,))
            w = R_map(v)
            family.instances += 1
            if R_inv(w) != v:
                family.miss(f"v={vtail + (0,)}")
            if any(vtail):
                image.add(w.codes)
        nonzero_small = {c for c in itertools.product(range(q), repeat=m) if any(c)}
        if image != nonzero_small:
            family.miss(f"image mismatch at m={m}")
    yield family.report()

    # alpha/beta bijection, count ratio, freed-entry closure.  The nice
    # tuples of each (v, prefix) are one block of the sweeps' flags; a
    # check that passes at the longest prefix, k = n+1, passes at every k
    bijection, ratio, closure = families = [
        _Family(name, field, max_m=m_hi, max_n=n_hi)
        for name in ("free-entry-bijection", "weak-strong-count-ratio", "free-entry-closure")
    ]

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
                        ratio.instances += 1
                        if nweak[b] != q * nstrong[b]:
                            ratio.miss(where(k, b * size))

                misses = []  # (k, prefix, side, tuple, y) of each bijection miss

                def round_trip(test, args, side: int, i: int, c: int) -> None:
                    if test(context(n + 1, i), *args):
                        return
                    for k in range(n + 2):
                        if k == n + 1 or not test(context(k, i), *args):
                            misses.append((k, i // q ** (length - k), side, i, c))

                pos = max(t for t, c in enumerate(vtail) if c) + n + 1
                step = q ** (length - 1 - pos)
                for i in weak:
                    bijection.instances += n + 2
                    round_trip(weak_ok, (SeqTuple.from_codes(field, all_codes[i]),), 0, i, 0)
                    # x with x_pos := c has index base + c*step; x_pos is
                    # past every prefix, so the result holds at every k
                    base = i - all_codes[i][pos] * step
                    missed = sum(not weak_flags[base + c * step] for c in range(q))
                    closure.instances += (n + 2) * q
                    if missed:
                        closure.miss(f"{where(0, i)} x={all_codes[i]}", (n + 2) * missed)
                for i in strong:
                    s = SeqTuple.from_codes(field, all_codes[i])
                    for c, y in enumerate(field.elements()):
                        bijection.instances += n + 2
                        round_trip(strong_ok, (s, y), 1, i, c)
                # in the order of one check per prefix: weak tuples before
                # strong ones within each (k, prefix) block
                for k, _, _, i, _ in sorted(misses):
                    bijection.miss(f"{where(k, i)} x={all_codes[i]}")
    # the zero windows are cached per vector across n; free them with the suite
    _window_successors.cache_clear()
    for family in families:
        yield family.report()


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
                        check, field, {**params, **extra}, formula, observed, started
                    )
                    if k > 0:
                        yield _timed(
                            "prefix-count-consistency",
                            field,
                            params,
                            q ** (2 * r),
                            total,
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
            yield _timed("full-width-count", field, params, formula, observed, started)
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
                    started,
                )
            yield _timed(
                "census-total",
                field,
                {"m": m, "n": n},
                q ** (m + n + 1),
                dist.total,
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
            yield _timed("det-zero-count", field, params, formula, observed, started)


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
            yield _timed("jt-singular-count-flip", field, params, formula, flip, started)
            direct_started = time.perf_counter()
            direct = brute_count_jt_singular(field, u, v, cap, path="direct")
            yield _timed(
                "jt-singular-count-direct", field, params, formula, direct, direct_started
            )
            yield _timed("jt-path-agreement", field, params, flip, direct, started)


_SUITE_FUNCS = {
    "lemmas": suite_lemmas,
    "identities": suite_identities,
    "witnesses": suite_witnesses,
    "theorems": suite_theorems,
    "jt": suite_jt,
}


def verify(
    suite: str,
    fields: Sequence[FieldSpec],
    *,
    max_n: int | None = None,
    cap: int = DEFAULT_CAP,
) -> list[CensusReport]:
    """Run one suite (or "all") over the given fields.

    Returns one report per checked instance family.  A family with no
    instances in the grid checked nothing, so its suite already reports it
    as "skipped", not "match"; a suite with no family in the grid gets one
    "skipped" report of its own.  A suite that hits the cap keeps the
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
            reports.extend(done)
            if reason is not None:
                reports.append(
                    CensusReport(name, field, {"reason": reason}, None, None, "skipped", 0.0)
                )
    return reports
