"""Independent oracles used to cross-check the library's fast paths.

Everything here deliberately avoids Gaussian elimination: determinants
come from the permutation-sum formula, ranks from nonvanishing minors,
and kernel counts from literal enumeration of row vectors or from
rank-nullity on those ranks.  Annihilation is tested entry by entry, with
no dot product.

Their arithmetic is FieldElement arithmetic.  It runs on the code
operations that gf binds once per field (FieldSpec.ops), the same
closures the library's elimination kernels use, and so on log tables for
extension fields up to 2^16.
test_properties.test_builtin_code_ops_match_table_free_arithmetic ties it
to table-free arithmetic (digit-wise sums mod p, polynomial products) on
every pair of elements of every built-in extension field, and
test_code_ops_match_polynomial_arithmetic on random pairs in every field
class.

irreducible_by_division alone uses no field at all: it decides
irreducibility by long division on plain ints mod p, against which
test_gf checks Rabin's test in gf.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from hankelcensus.gf import FieldElement, FieldSpec
from hankelcensus.hankel import (
    DenseMatrix,
    HankelShape,
    RowVector,
    SeqTuple,
    iter_seq_tuples,
    materialize_hankel,
)


def perm_parity(perm: tuple[int, ...]) -> int:
    """0 for even permutations, 1 for odd (by inversion count)."""
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inversions & 1


def leibniz_det(M: DenseMatrix) -> FieldElement:
    """Determinant as the signed sum over all permutations."""
    assert M.rows == M.cols
    n = M.rows
    total = M.field.zero
    for perm in itertools.permutations(range(n)):
        term = M.field.one
        for i in range(n):
            term = term * M.entry(i, perm[i])
        if perm_parity(perm):
            term = -term
        total = total + term
    return total


def minor_rank(M: DenseMatrix) -> int:
    """Largest k with a nonvanishing k x k minor (Leibniz determinants)."""
    zero = M.field.zero
    for k in range(min(M.rows, M.cols), 0, -1):
        for rows in itertools.combinations(range(M.rows), k):
            for cols in itertools.combinations(range(M.cols), k):
                sub = DenseMatrix(M.field, k, k, [M.entry(i, j) for i in rows for j in cols])
                if leibniz_det(sub) != zero:
                    return k
    return 0


def vec_mat_mul(v: RowVector, M: DenseMatrix) -> RowVector:
    """Row vector times matrix; v must have one entry per matrix row."""
    if len(v) != M.rows:
        raise ValueError(f"vector length {len(v)} != matrix rows {M.rows}")
    if v.field != M.field:
        raise ValueError("vector and matrix live in different fields")
    spec = M.field
    add, mul = spec.ops.add, spec.ops.mul
    out = []
    for j in range(M.cols):
        acc = 0
        for vi, mij in zip(v.codes, M.codes[j :: M.cols]):
            acc = add(acc, mul(vi, mij))
        out.append(acc)
    return RowVector.from_codes(spec, out)


def annihilates(v: RowVector, x: SeqTuple, ncols: int) -> bool:
    """Whether v kills the first ncols columns of x's Hankel view with
    len(v) rows, each column summed entry by entry; a column that runs
    past x raises IndexError."""
    zero = x.field.zero
    return all(
        sum((vi * x[i + t] for i, vi in enumerate(v)), zero) == zero for t in range(ncols)
    )


def annihilator_count(M: DenseMatrix, include_zero: bool = False) -> int:
    """Literal count of row vectors v with v M = 0."""
    field = M.field
    zero = field.zero
    count = 0
    for entries in itertools.product(field.elements(), repeat=M.rows):
        v = RowVector(field, entries)
        if not include_zero and not v:
            continue
        product = vec_mat_mul(v, M)
        if all(e == zero for e in product.entries):
            count += 1
    return count


def elkies_rhs_literal(x: SeqTuple, m: int, n: int) -> int:
    """Right side of the kernel-counting identity by vector enumeration."""
    q = x.field.order
    full = materialize_hankel(x, HankelShape(m, n))
    shaved = materialize_hankel(x, HankelShape(m - 1, n + 1))
    return annihilator_count(full) - q * annihilator_count(shaved)


def kernel_count(M: DenseMatrix) -> int:
    """Nonzero row vectors v with v M = 0, by rank-nullity: Q^(rows - rank) - 1."""
    return M.field.order ** (M.rows - minor_rank(M)) - 1


def elkies_identity_sides(x: SeqTuple, m: int, n: int) -> tuple[int, int]:
    """Both sides of the kernel-counting identity for H_{m,n}(x).

    Left side: (Q-1) * [rank(H_{m,n}(x)) <= m].  Right side: the number of
    nonzero left-annihilators of H_{m,n}(x) minus Q times the number for
    H_{m-1,n+1}(x).  The two are equal for every x when m <= n+1.
    """
    q = x.field.order
    kernel = kernel_count(materialize_hankel(x, HankelShape(m, n)))
    shaved = kernel_count(materialize_hankel(x, HankelShape(m - 1, n + 1)))
    # H_{m,n} has m+1 rows: its rank is <= m when some nonzero v kills it
    return (q - 1) * (kernel > 0), kernel - q * shaved


def sumlast_sides(field: FieldSpec, m: int, n: int, a: SeqTuple) -> tuple[int, int]:
    """Both sides of the summed annihilator identity for the prefix a.

    Left side: the right side of `elkies_identity_sides` summed over every
    completion of a to length m+n+1.  Right side: (Q-1) Q^(2m-k) for k =
    len(a); the two are equal when k <= m and k <= n+1.
    """
    q = field.order
    lhs = sum(elkies_identity_sides(x, m, n)[1] for x in iter_seq_tuples(field, m + n + 1, a))
    return lhs, (q - 1) * q ** (2 * m - len(a))


def irreducible_by_division(modulus: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p) of the monic little-endian modulus, of
    degree d >= 1, by trial division: it is reducible exactly when one of
    the monic polynomials of degree 1 to d/2 divides it."""
    d = len(modulus) - 1
    for k in range(1, d // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            divisor = low + (1,)
            r = [c % p for c in modulus]
            # clear r[top] with r[top] * x^(top-k) * divisor, top = d..k
            for top in range(d, k - 1, -1):
                f = r[top]
                for i, c in enumerate(divisor):
                    r[top - k + i] = (r[top - k + i] - f * c) % p
            if not any(r):
                return False
    return True
