"""Constructive gadgets behind the kernel-counting arguments.

Given a row vector v of length m+1 and a prefix a of length k, a tuple x
of length m+n+1 is *weakly nice* when it starts with a and v annihilates
its (m, n) Hankel view, and *strongly nice* when it starts with a and the
truncated vector R(v) (v with its trailing zero dropped) annihilates the
wider (m-1, n+1) view.  For nonzero v with last entry 0 the two notions
differ by exactly one free entry, x_{j+n+1}, where j is the largest index
with v_j != 0; `alpha` and `beta` are the mutually inverse maps that trade
that entry for a field element.

`solve_tail` is the complementary gadget for last(v) != 0: the tail
entries x_m..x_{m+n} are then uniquely determined from the head by back
substitution, so annihilating tuples with a fixed k-prefix number Q^{m-k}.

Every annihilation equation, in the predicates, `solve_tail` and `beta`,
is one dot product of v with a window of x, by the field's `dot`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

from hankelcensus.gf import FieldElement, FieldSpec
from hankelcensus.hankel import RowVector, SeqTuple

__all__ = [
    "NiceContext",
    "last",
    "solve_tail",
    "R_map",
    "R_inv",
    "is_weakly_nice",
    "is_strongly_nice",
    "alpha",
    "beta",
]


def last(v: RowVector) -> FieldElement:
    """Final entry of a nonempty row vector."""
    if len(v) == 0:
        raise ValueError("empty row vector has no last entry")
    return v[-1]


def R_map(v: RowVector) -> RowVector:
    """Drop the trailing entry, which must be zero."""
    if last(v):
        raise ValueError("R is only defined on vectors with last entry 0")
    return RowVector.from_codes(v.field, v.codes[:-1])


def R_inv(w: RowVector) -> RowVector:
    """Append a zero entry; inverse of R_map on its domain."""
    return RowVector.from_codes(w.field, w.codes + (0,))


def _annihilates_codes(
    spec: FieldSpec, vcodes: tuple[int, ...], xcodes: tuple[int, ...], ncols: int
) -> bool:
    # v . (Hankel view with `ncols` columns) == 0, evaluated on codes
    dot = spec.ops.dot
    width = len(vcodes)
    for t in range(ncols):
        if dot(vcodes, xcodes[t : t + width]):
            return False
    return True


@lru_cache(maxsize=1024)
def _window_successors(spec: FieldSpec, vcodes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """For each head h of width-1 codes (read base Q), the codes c that
    complete it to a window h + (c,) annihilated by v, from a brute sweep
    of all Q^width windows.  Equal tuples are shared, so a cached entry
    costs about one pointer per head."""
    q = spec.order
    windows = itertools.product(range(q), repeat=len(vcodes))
    follow: list[list[int]] = [[] for _ in range(q ** (len(vcodes) - 1))]
    for w, window in enumerate(windows):
        if _annihilates_codes(spec, vcodes, window, 1):
            follow[w // q].append(window[-1])
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    return [shared.setdefault(cs, cs) for cs in map(tuple, follow)]


def _annihilation_flags(
    spec: FieldSpec, vcodes: tuple[int, ...], ncols: int, length: int
) -> list[bool]:
    """`_annihilates_codes` on every code tuple of the given length.

    Flags come in `itertools.product` order, so the tuples that share a
    k-prefix with code value b (read base Q, first entry most significant)
    are the contiguous block b*Q^(length-k) .. (b+1)*Q^(length-k) - 1.
    """
    q = spec.order
    width = len(vcodes)
    flags = [False] * q**length
    if ncols and width + ncols - 1 > length:
        return flags  # the last column runs past the tuple
    # column t is annihilated exactly when its window x_t..x_{t+width-1}
    # is, so the tuples are grown one entry at a time, in code order, and
    # x_p only takes the values that complete an annihilated window
    follow = _window_successors(spec, vcodes)
    head = q ** (width - 1)  # a code's last width-1 entries are its value mod this
    every = range(q)
    codes = [0]
    for p in range(length):
        if 0 <= p - width + 1 < ncols:
            codes = [x * q + c for x in codes for c in follow[x % head]]
        else:
            codes = [x * q + c for x in codes for c in every]
    for x in codes:
        flags[x] = True
    return flags


def solve_tail(v: RowVector, head: SeqTuple, n: int) -> SeqTuple:
    """The unique x of length m+n+1 extending head with v annihilating it.

    Needs last(v) != 0; head supplies x_0..x_{m-1} and each tail entry is
    x_{m+t} = -(v_0 x_t + ... + v_{m-1} x_{m+t-1}) / v_m for t = 0..n.
    """
    if not last(v):
        raise ValueError("solve_tail needs last(v) != 0")
    if head.field != v.field:
        raise ValueError("head and v live in different fields")
    m = len(v) - 1
    if len(head) != m:
        raise ValueError(f"head must have {m} entries, got {len(head)}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    spec = v.field
    ops = spec.ops
    body = v.codes[:m]
    scale = ops.neg(ops.inv(v.codes[m]))  # -1/v_m
    x = list(head.codes)
    for t in range(n + 1):
        x.append(ops.mul(ops.dot(body, x[t : t + m]), scale))
    return SeqTuple.from_codes(spec, x)


@dataclass(frozen=True)
class NiceContext:
    """Fixed data (v, a) for the weakly/strongly nice predicates.

    Requires v nonzero with last entry 0 and a prefix of length k <= n+1;
    j, the largest index with v_j != 0, is derived at construction.
    """

    field: FieldSpec
    m: int
    n: int
    v: RowVector
    a: SeqTuple
    j: int = dataclass_field(init=False)

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"need m, n >= 0, got m={self.m}, n={self.n}")
        if self.v.field != self.field or self.a.field != self.field:
            raise ValueError("v and a must live in the context field")
        if len(self.v) != self.m + 1:
            raise ValueError(f"v must have {self.m + 1} entries, got {len(self.v)}")
        if not self.v:
            raise ValueError("v must be nonzero")
        if last(self.v):
            raise ValueError("context needs last(v) = 0")
        if len(self.a) > self.n + 1:
            raise ValueError(f"prefix length {len(self.a)} exceeds n+1 = {self.n + 1}")
        j = max(i for i, c in enumerate(self.v.codes) if c)
        object.__setattr__(self, "j", j)

    @property
    def k(self) -> int:
        return len(self.a)


def _check_tuple(x: SeqTuple, ctx: NiceContext) -> None:
    if x.field != ctx.field:
        raise ValueError("tuple lives in a different field")
    if len(x) != ctx.m + ctx.n + 1:
        raise ValueError(f"tuple must have {ctx.m + ctx.n + 1} entries, got {len(x)}")


def is_weakly_nice(x: SeqTuple, ctx: NiceContext) -> bool:
    """x starts with a and v annihilates its (m, n) Hankel view."""
    _check_tuple(x, ctx)
    if x.codes[: ctx.k] != ctx.a.codes:
        return False
    return _annihilates_codes(ctx.field, ctx.v.codes, x.codes, ctx.n + 1)


def is_strongly_nice(x: SeqTuple, ctx: NiceContext) -> bool:
    """x starts with a and R(v) annihilates its (m-1, n+1) Hankel view."""
    _check_tuple(x, ctx)
    if x.codes[: ctx.k] != ctx.a.codes:
        return False
    return _annihilates_codes(ctx.field, ctx.v.codes[:-1], x.codes, ctx.n + 2)


def alpha(y: FieldElement, x: SeqTuple, ctx: NiceContext) -> SeqTuple:
    """Replace entry x_{j+n+1} of a strongly nice tuple by y."""
    if y.spec != ctx.field:
        raise ValueError("y lives in a different field")
    if not is_strongly_nice(x, ctx):
        raise ValueError("alpha needs a strongly nice input tuple")
    pos = ctx.j + ctx.n + 1
    return SeqTuple.from_codes(ctx.field, x.codes[:pos] + (y.code,) + x.codes[pos + 1 :])


def beta(x: SeqTuple, ctx: NiceContext) -> tuple[FieldElement, SeqTuple]:
    """Extract entry x_{j+n+1} of a weakly nice tuple and restore z.

    z is the unique value making the one extra annihilation equation hold:
    z = -(v_0 x_{n+1} + v_1 x_{n+2} + ... + v_{j-1} x_{j+n}) / v_j.
    """
    if not is_weakly_nice(x, ctx):
        raise ValueError("beta needs a weakly nice input tuple")
    spec = ctx.field
    ops = spec.ops
    vcodes = ctx.v.codes
    xcodes = x.codes
    j, n = ctx.j, ctx.n
    pos = j + n + 1
    z = ops.mul(ops.dot(vcodes[:j], xcodes[n + 1 : pos]), ops.neg(ops.inv(vcodes[j])))
    return x[pos], SeqTuple.from_codes(spec, xcodes[:pos] + (z,) + xcodes[pos + 1 :])

