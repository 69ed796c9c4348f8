"""Hankel and Jacobi-Trudi matrices over a finite field, with exact rank.

A Hankel view of a tuple x = (x_0, ..., x_N) with shape (rdeg, cdeg) is the
(rdeg+1) x (cdeg+1) matrix whose (i, j) entry is x_{i+j}; rdeg or cdeg may
be -1, giving a legal empty matrix of rank 0.  Rank and determinant are
computed by exact Gaussian elimination with partial pivoting on the first
nonzero entry.

The containers (SeqTuple, RowVector, DenseMatrix) hold their field and a
tuple of integer element codes (see gf); a FieldElement is decoded only
when an entry is read.  Internally rows are lists of codes.  Rank and
determinant run one pivot loop: it finds each column's first nonzero
entry below the rows already used, and hands it to one pivot step
(_clear), which swaps that row up and subtracts (f/a)*prow from each row
below; det() wraps the step to track the pivot product and swap sign.
Lockstep elimination (_lockstep_rank_le) decides "rank <= limit" for a
whole batch of tuples at once: each view entry is one list over the
batch, cleared by the field's inverse-free lane update, and a view with a
zero pivot falls back to the pivot loop.  All of this runs on the
operations gf binds once per field (FieldSpec.ops); this module has no
field arithmetic of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from hankelcensus.gf import CodeOps, FieldElement, FieldSpec

__all__ = [
    "SeqTuple",
    "HankelShape",
    "DenseMatrix",
    "RowVector",
    "materialize_hankel",
    "rank_gauss",
    "det",
    "jt_matrix",
    "jt_to_hankel",
    "row_reversal_sign",
    "iter_seq_tuples",
]


def _encode(field: FieldSpec, entries: Sequence[FieldElement]) -> tuple[int, ...]:
    for e in entries:
        if e.spec != field:
            raise ValueError(f"entry {e!r} does not belong to {field}")
    return tuple(e.code for e in entries)


@dataclass(frozen=True, init=False)
class _CodeTuple:
    """A tuple of elements of one field, held as the field and their codes.

    Reading an entry (x[i], a slice, iteration, `entries`) decodes it.
    Equal codes in the same field and of the same class compare equal.
    """

    field: FieldSpec
    codes: tuple[int, ...]

    def __init__(self, field: FieldSpec, entries: Sequence[FieldElement]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "codes", _encode(field, entries))

    @classmethod
    def from_codes(cls, field: FieldSpec, codes: Sequence[int]):
        """The tuple with these codes, each in [0, Q)."""
        codes = tuple(codes)
        if codes and not (0 <= min(codes) and max(codes) < field.order):
            raise ValueError(f"codes {codes} out of range for {field}")
        x = object.__new__(cls)
        object.__setattr__(x, "field", field)
        object.__setattr__(x, "codes", codes)
        return x

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        return self[:]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(FieldElement(self.field, c) for c in self.codes[i])
        return FieldElement(self.field, self.codes[i])

    def __iter__(self) -> Iterator[FieldElement]:
        return iter(self[:])

    def __str__(self):
        return "(" + ",".join(str(e) for e in self) + ")"


class SeqTuple(_CodeTuple):
    """A tuple (x_0, ..., x_N) of field elements."""


class RowVector(_CodeTuple):
    """A row vector v = (v_0, ..., v_m) over a fixed field; true when nonzero."""

    def __bool__(self) -> bool:
        return any(self.codes)


@dataclass(frozen=True)
class HankelShape:
    """Hankel degrees (rdeg, cdeg); the matrix is (rdeg+1) x (cdeg+1)."""

    rdeg: int
    cdeg: int

    def __post_init__(self):
        if self.rdeg < -1 or self.cdeg < -1:
            raise ValueError(f"Hankel degrees must be >= -1, got {self}")

    @property
    def rows(self) -> int:
        return self.rdeg + 1

    @property
    def cols(self) -> int:
        return self.cdeg + 1


@dataclass(frozen=True, init=False)
class DenseMatrix:
    """Row-major dense matrix over a fixed field, held as a tuple of codes.

    DenseMatrix(field, rows, cols, data) takes the entries as field
    elements, row by row; `data`, `entry` and `row` decode them again.
    """

    field: FieldSpec
    rows: int
    cols: int
    codes: tuple[int, ...]

    def __init__(self, field: FieldSpec, rows: int, cols: int, data: Sequence[FieldElement]):
        self._set(field, rows, cols, _encode(field, data))

    def _set(self, field: FieldSpec, rows: int, cols: int, codes: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(codes) != rows * cols:
            raise ValueError(f"data length {len(codes)} != {rows} x {cols}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def _of(cls, field: FieldSpec, rows: int, cols: int, codes: tuple[int, ...]) -> "DenseMatrix":
        # from codes already in [0, Q)
        M = object.__new__(cls)
        M._set(field, rows, cols, codes)
        return M

    @property
    def data(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, c) for c in self.codes)

    def entry(self, i: int, j: int) -> FieldElement:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range")
        return FieldElement(self.field, self.codes[i * self.cols + j])

    def row(self, i: int) -> tuple[FieldElement, ...]:
        c = self.cols
        return tuple(FieldElement(self.field, x) for x in self.codes[i * c : (i + 1) * c])

    def code_rows(self) -> list[list[int]]:
        """Fresh mutable integer-code rows (safe to hand to the kernels)."""
        c, codes = self.cols, self.codes
        return [list(codes[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __str__(self):
        return "\n".join(
            "[" + " ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)
        )


def _clear(ops: CodeOps, rows: list[list[int]], top: int, piv: int, col: int) -> None:
    """Swap row piv up to top and clear column col below it; det stays as it is."""
    rows[top], rows[piv] = rows[piv], rows[top]
    prow = rows[top]
    # above the table limit an inverse costs about two polynomial
    # products, so the pivot is inverted at the first row to clear (0
    # marks "not yet"), and never when there is none
    pinv = 0
    for i in range(top + 1, len(rows)):
        f = rows[i][col]
        if f:
            if not pinv:
                pinv = ops.inv(prow[col])
            rows[i] = ops.sub_mul(rows[i], ops.mul(f, pinv), prow)


def _pivot_loop(ops: CodeOps, rows: list[list[int]], limit: int, step=_clear) -> int:
    """The rank of the code rows, which each pivot's step mutates.

    `limit` stops the pivot hunt early: the rank returned is exact when it
    is <= limit, and limit+1 means "rank exceeds limit".
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        for piv in range(rank, nrows):
            if rows[piv][col]:
                break
        else:
            continue
        if rank >= limit:
            return rank + 1
        step(ops, rows, rank, piv, col)
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_codes(spec: FieldSpec, rows: list[list[int]], limit: int | None = None) -> int:
    # the rank never exceeds the row count, so that limit stops nothing
    return _pivot_loop(spec.ops, rows, len(rows) if limit is None else limit)


def _hankel_code_rows(codes: Sequence[int], rdeg: int, cdeg: int) -> list[list[int]]:
    """Mutable code rows of the (rdeg+1) x (cdeg+1) Hankel view of codes."""
    ncols = cdeg + 1
    return [list(codes[i : i + ncols]) for i in range(rdeg + 1)]


def _lockstep_rank_le(ops: CodeOps, batch, rdeg: int, cdeg: int, limit: int) -> int:
    """How many tuples of batch have a (rdeg, cdeg) Hankel view of rank <= limit.

    batch is a sequence of code tuples of length at least rdeg+cdeg+1,
    and ops the operations of their field.  Every view is pivoted on its
    diagonal entries (k, k), k < limit, one lane update per step for the
    whole batch.  A view with a zero pivot on the way is decided on its
    own by the pivot loop; every other one has rank <= limit exactly when
    the block from row and column `limit` on is zero.
    """
    nrows, ncols = rdeg + 1, cdeg + 1
    if min(nrows, ncols) <= limit:
        return len(batch)
    cols = list(zip(*batch))  # cols[t] is x_t over the batch
    rows = [[cols[i + j] for j in range(ncols)] for i in range(nrows)]
    irregular: set[int] = set()
    for k in range(limit):
        piv = rows[k][k]
        if 0 in piv:
            irregular.update(b for b, a in enumerate(piv) if not a)
        ops.lanes(rows, k)
    # Every step of a regular lane is an invertible row operation, and its
    # first `limit` rows now have nonzero pivots on the diagonal, so its
    # rank is limit plus the rank of the block below and right of them
    rest = [col for row in rows[limit:] for col in row[limit:]]
    flags = [not any(v) for v in zip(*rest)]
    for b in irregular:
        flags[b] = _pivot_loop(ops, _hankel_code_rows(batch[b], rdeg, cdeg), limit) <= limit
    return sum(flags)


# ----------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------


def materialize_hankel(x: SeqTuple, shape: HankelShape) -> DenseMatrix:
    """The (rdeg+1) x (cdeg+1) matrix with entry (i, j) = x_{i+j}."""
    n = len(x) - 1
    if shape.rdeg + shape.cdeg > n:
        raise ValueError(
            f"shape ({shape.rdeg},{shape.cdeg}) needs rdeg+cdeg <= {n} "
            f"for a tuple of length {len(x)}"
        )
    nrows, ncols = shape.rows, shape.cols
    codes = x.codes
    data = tuple(codes[i + j] for i in range(nrows) for j in range(ncols))
    return DenseMatrix._of(x.field, nrows, ncols, data)


def rank_gauss(M: DenseMatrix) -> int:
    """Exact rank over the field; an empty matrix has rank 0."""
    return _rank_codes(M.field, M.code_rows())


def det(M: DenseMatrix) -> FieldElement:
    """Determinant by elimination, tracking pivot products and swap sign."""
    if M.rows != M.cols:
        raise ValueError(f"determinant needs a square matrix, got {M.rows}x{M.cols}")
    spec = M.field
    acc = 1  # pivot product, negated per row swap

    def step(ops, rows, top, piv, col):
        nonlocal acc
        acc = ops.mul(acc, rows[piv][col])
        if piv != top:
            acc = ops.neg(acc)
        _clear(ops, rows, top, piv, col)

    if _pivot_loop(spec.ops, M.code_rows(), M.rows, step) < M.rows:
        return spec.zero
    return spec.element(acc)


def jt_matrix(y: SeqTuple, u: int, v: int) -> DenseMatrix:
    """The v x v matrix with entry (i, j) = y_{u-i+j} (1-indexed i, j).

    The tuple y supplies y_1 .. y_{u+v-1}; index 0 is read as 1 and
    negative indices as 0.
    """
    if u < 0 or v < 0 or u + v < 1:
        raise ValueError(f"need u, v >= 0 with u+v >= 1, got u={u}, v={v}")
    if len(y) != u + v - 1:
        raise ValueError(f"y must have {u + v - 1} entries, got {len(y)}")
    # ext[v + idx] is y_idx for every idx >= 1 - v: 1 at 0, 0 below it
    ext = (0,) * v + (1,) + y.codes
    codes = tuple(ext[v + u - i + j] for i in range(1, v + 1) for j in range(1, v + 1))
    return DenseMatrix._of(y.field, v, v, codes)


def jt_to_hankel(y: SeqTuple, u: int, v: int) -> SeqTuple:
    """The (2v-1)-tuple x with x_t = y_{u-v+1+t} (same 0/1 index conventions).

    Its (v-1, v-1) Hankel view is jt_matrix(y, u, v) with row order
    reversed, so determinants agree up to the row-reversal sign and ranks
    agree exactly.
    """
    if u < 1 or v < 1:
        raise ValueError(f"the flip needs u >= 1 and v >= 1, got u={u}, v={v}")
    if len(y) != u + v - 1:
        raise ValueError(f"y must have {u + v - 1} entries, got {len(y)}")
    # the ext of jt_matrix, read at v + (u - v + 1 + t)
    return SeqTuple.from_codes(y.field, ((0,) * v + (1,) + y.codes)[u + 1 : u + 2 * v])


def row_reversal_sign(field: FieldSpec, nrows: int) -> FieldElement:
    """Sign (-1)^floor(nrows/2) of the permutation reversing nrows rows."""
    one = field.one
    return one if (nrows // 2) % 2 == 0 else -one


def iter_seq_tuples(
    field: FieldSpec, length: int, fixed_prefix: SeqTuple | None = None
) -> Iterator[SeqTuple]:
    """All tuples of the given length, optionally with a fixed prefix.

    Enumeration is the canonical odometer over element codes.
    """
    head: tuple[int, ...] = ()
    if fixed_prefix is not None:
        if fixed_prefix.field != field:
            raise ValueError("prefix belongs to a different field")
        if len(fixed_prefix) > length:
            raise ValueError("prefix longer than requested tuple")
        head = fixed_prefix.codes
    for tail in itertools.product(range(field.order), repeat=length - len(head)):
        yield SeqTuple.from_codes(field, head + tail)
