"""Rank laws relating adjacent Hankel shapes, and the fast rank-bound test.

The adjacent pair for degrees (rdeg, cdeg) is the "tall" matrix
H_{rdeg,cdeg-1} next to the "wide" matrix H_{rdeg-1,cdeg}.  Their ranks
obey a chain of implications which, iterated, reduce the rank-bound test
rank(H_{m,n}(x)) <= r to the same test on the much smaller H_{r,s}(x)
with s = m+n-r.  That reduction is the only speedup this package uses.

The kernel-counting identity relates the rank-bound truth value to sizes
of left kernels of the two widest shapes.  `_annihilator_term` computes
its kernel side for one tuple, which the identity suite checks instance
by instance and sums over prefixes; both kernel sizes come from the ranks
of the two views by rank-nullity, one elimination per view, on the
tuple's codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from hankelcensus.gf import FieldSpec
from hankelcensus.hankel import HankelShape, SeqTuple, _hankel_code_rows, _rank_codes

__all__ = [
    "RankPair",
    "rank_pair",
    "rank_le_fast",
    "rank_via_reduction",
]


@dataclass(frozen=True)
class RankPair:
    """Ranks of the tall (rdeg, cdeg-1) and wide (rdeg-1, cdeg) views."""

    rank_tall: int
    rank_wide: int


def rank_pair(x: SeqTuple, rdeg: int, cdeg: int) -> RankPair:
    """Both adjacent ranks, each by direct elimination."""
    if rdeg < 0 or cdeg < 0:
        raise ValueError(f"need rdeg, cdeg >= 0, got ({rdeg},{cdeg})")
    n = len(x) - 1
    if rdeg + cdeg > n + 1:
        raise ValueError(f"need rdeg+cdeg <= {n + 1} for a tuple of length {len(x)}")
    tall, wide, _ = _annihilator_term(x.field, x.codes, rdeg, cdeg - 1)
    return RankPair(tall, wide)


def _reduced_shape(m: int, n: int, r: int) -> tuple[int, int]:
    """The view (rdeg, cdeg) on which rank(H_{m,n}) <= r is decided.

    It is (r, m+n-r) when the reduction's hypotheses r <= m, r <= n
    hold, and (m, n) itself otherwise.
    """
    if r <= m and r <= n:
        return r, m + n - r
    return m, n


def rank_le_fast(x: SeqTuple, m: int, n: int, r: int) -> bool:
    """Whether rank(H_{m,n}(x)) <= r, tested on the reduced shape.

    Only the (r+1) x (m+n-r+1) view H_{r,s}(x), s = m+n-r, is
    materialized; its rank is <= r exactly when the full matrix's is.
    """
    if r < 0 or m < 0 or n < 0:
        raise ValueError(f"need m, n, r >= 0, got m={m}, n={n}, r={r}")
    if r > m or r > n:
        raise ValueError(f"the reduction needs r <= m and r <= n, got m={m}, n={n}, r={r}")
    if m + n > len(x) - 1:
        raise ValueError(f"need m+n <= {len(x) - 1} for this tuple")
    rows = _hankel_code_rows(x.codes, *_reduced_shape(m, n, r))
    return _rank_codes(x.field, rows, r) <= r


def rank_via_reduction(x: SeqTuple, m: int, n: int) -> tuple[int, HankelShape]:
    """Exact rank of H_{m,n}(x) by probing rank bounds on reduced shapes.

    Probes r = 0, 1, ... through rank_le_fast; the first bound that holds
    is the rank.  Returns the rank and the shape the deciding test ran on
    ((m, n) itself when the matrix has full rank min(m,n)+1).
    """
    if m < 0 or n < 0:
        raise ValueError(f"need m, n >= 0, got m={m}, n={n}")
    lo = min(m, n)
    for r in range(lo + 1):
        if rank_le_fast(x, m, n, r):
            return r, HankelShape(*_reduced_shape(m, n, r))
    return lo + 1, HankelShape(m, n)


def _annihilator_term(
    spec: FieldSpec, codes: Sequence[int], m: int, n: int
) -> tuple[int, int, int]:
    """Ranks of the (m, n) and (m-1, n+1) views of codes, and the term.

    The term is the number of nonzero left-annihilators of H_{m,n} minus Q
    times the number for H_{m-1,n+1}; a view with `rows` rows and rank r
    has Q^(rows-r) - 1 of them.  The shapes are not checked: callers
    validate them, and the summed identity also runs m > n+1.
    """
    q = spec.order
    full = _rank_codes(spec, _hankel_code_rows(codes, m, n))
    shaved = _rank_codes(spec, _hankel_code_rows(codes, m - 1, n + 1))
    return full, shaved, q ** (m + 1 - full) - 1 - q * (q ** (m - shaved) - 1)

