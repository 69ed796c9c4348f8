"""Independent oracles used to cross-check the library's fast paths.

Everything here deliberately avoids Gaussian elimination: determinants
come from the permutation-sum formula, ranks from nonvanishing minors,
and kernel counts from literal enumeration of row vectors.

Their arithmetic is FieldElement arithmetic.  It runs on the code
operations that gf binds once per field (FieldSpec.ops), the same
closures the library's elimination kernels use, and so on log tables for
extension fields up to 2^16.
test_properties.test_builtin_code_ops_match_table_free_arithmetic ties it
to table-free arithmetic (digit-wise sums mod p, polynomial products) on
every pair of elements of every built-in extension field, and
test_code_ops_match_polynomial_arithmetic on random pairs in every field
class.
"""

from __future__ import annotations

import itertools

from hankelcensus.gf import FieldElement
from hankelcensus.hankel import (
    DenseMatrix,
    HankelShape,
    RowVector,
    SeqTuple,
    materialize_hankel,
    vec_mat_mul,
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
                sub = DenseMatrix.from_rows(
                    M.field,
                    [[M.entry(i, j) for j in cols] for i in rows],
                )
                if leibniz_det(sub) != zero:
                    return k
    return 0


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
