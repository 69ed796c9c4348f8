"""Hankel/Jacobi-Trudi construction, rank, determinant, kernels, flips."""

from __future__ import annotations

import itertools
import random

import pytest

import oracles
from hankelcensus.gf import FieldElement, FieldSpec
from hankelcensus.hankel import (
    DenseMatrix,
    HankelShape,
    RowVector,
    SeqTuple,
    det,
    iter_seq_tuples,
    jt_matrix,
    jt_to_hankel,
    materialize_hankel,
    rank_gauss,
    row_reversal_sign,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F4 = FieldSpec.from_order(4)
F9 = FieldSpec.from_order(9)
F_BIG = FieldSpec(2**31 - 1)


def seq(field, codes):
    return SeqTuple.from_codes(field, codes)


def test_materialize_layout():
    # six distinct entries exhibit the anti-diagonal layout directly
    x = seq(F7, [0, 1, 2, 3, 4, 5])
    M = materialize_hankel(x, HankelShape(2, 3))
    assert (M.rows, M.cols) == (3, 4)
    for i in range(3):
        for j in range(4):
            assert M.entry(i, j) == x[i + j]
    # the same matrix built from elements is equal and hashes alike
    built = DenseMatrix(F7, 3, 4, tuple(x[i + j] for i in range(3) for j in range(4)))
    assert built == M and hash(built) == hash(M)
    assert built.data == M.data and M.code_rows() == [[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5]]


def test_materialize_degenerate_shapes():
    x = seq(F2, [0, 1, 0, 1])
    empty_rows = materialize_hankel(x, HankelShape(-1, 3))
    assert (empty_rows.rows, empty_rows.cols) == (0, 4)
    assert rank_gauss(empty_rows) == 0
    empty_cols = materialize_hankel(x, HankelShape(2, -1))
    assert (empty_cols.rows, empty_cols.cols) == (3, 0)
    assert rank_gauss(empty_cols) == 0
    one_by_one = materialize_hankel(seq(F2, [1]), HankelShape(0, 0))
    assert one_by_one.entry(0, 0) == F2.one


def test_materialize_range_errors():
    x = seq(F2, [0, 1, 0])
    with pytest.raises(ValueError):
        materialize_hankel(x, HankelShape(2, 1))
    with pytest.raises(ValueError):
        HankelShape(-2, 0)


def test_rank_zero_matrix():
    x = seq(F3, [0] * 6)
    assert rank_gauss(materialize_hankel(x, HankelShape(2, 3))) == 0


def test_rank_one_patterns():
    # geometric tuples (u, uv, uv^2, ...) with u != 0 have rank exactly 1
    for u in range(1, 5):
        for v in range(5):
            codes = [u * pow(v, i, 5) % 5 for i in range(6)]
            M = materialize_hankel(seq(F5, codes), HankelShape(2, 3))
            assert rank_gauss(M) == 1
    # so does (0,...,0,w) with w != 0
    M = materialize_hankel(seq(F5, [0, 0, 0, 0, 0, 3]), HankelShape(2, 3))
    assert rank_gauss(M) == 1


@pytest.mark.parametrize(
    "field,rows,cols",
    [(F2, 2, 3), (F2, 3, 3), (F3, 2, 2), (F3, 2, 3), (F4, 2, 3), (F9, 2, 2)],
)
def test_rank_matches_minor_oracle(field, rows, cols):
    elems = field.elements()
    for data in itertools.product(elems, repeat=rows * cols):
        M = DenseMatrix(field, rows, cols, data)
        assert rank_gauss(M) == oracles.minor_rank(M)


def identity(field, n):
    return DenseMatrix(field, n, n, [field.element(int(i == j)) for i in range(n) for j in range(n)])


def zeros(field, rows, cols):
    return DenseMatrix(field, rows, cols, [field.zero] * (rows * cols))


def test_det_identity():
    assert det(identity(F3, 2)) == F3.one
    assert det(identity(F3, 0)) == F3.one


def test_det_matches_leibniz_exhaustive():
    for field, n in ((F3, 2), (F2, 3), (F4, 2), (F9, 2)):
        elems = field.elements()
        for data in itertools.product(elems, repeat=n * n):
            M = DenseMatrix(field, n, n, data)
            assert det(M) == oracles.leibniz_det(M)


def test_det_matches_leibniz_random_larger():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([4, 5])
        data = tuple(F7.element(rng.randrange(7)) for _ in range(n * n))
        M = DenseMatrix(F7, n, n, data)
        assert det(M) == oracles.leibniz_det(M)


def test_det_zero_iff_rank_deficient():
    elems = F3.elements()
    for data in itertools.product(elems, repeat=4):
        M = DenseMatrix(F3, 2, 2, data)
        assert (det(M) == F3.zero) == (rank_gauss(M) < 2)


def test_det_requires_square():
    with pytest.raises(ValueError):
        det(zeros(F2, 2, 3))


def test_jt_det_example_cubic():
    # det of the 3x3 matrix built from (y1, y2, y3) with u=1 equals
    # y3 + y1^3 - 2*y1*y2, checked at every point of GF(3)^3
    two = F3.element(2)
    for y in iter_seq_tuples(F3, 3):
        y1, y2, y3 = y.entries
        expected = y3 + y1 * y1 * y1 - two * y1 * y2
        assert det(jt_matrix(y, 1, 3)) == expected


def test_jt_det_example_u4_v3():
    # u=4, v=3: det = y6 y3^2 - 2 y3 y4 y5 + y4^3 - y2 y6 y4 + y2 y5^2
    two = F3.element(2)
    for y in iter_seq_tuples(F3, 6):
        y1, y2, y3, y4, y5, y6 = y.entries
        expected = (
            y6 * y3 * y3
            - two * y3 * y4 * y5
            + y4 * y4 * y4
            - y2 * y6 * y4
            + y2 * y5 * y5
        )
        assert det(jt_matrix(y, 4, 3)) == expected


def left_kernel_dim(M):
    # rank-nullity on the elimination rank
    return M.rows - rank_gauss(M)


def test_left_kernel_dim_examples():
    assert left_kernel_dim(zeros(F2, 2, 2)) == 2
    assert left_kernel_dim(identity(F3, 3)) == 0
    M = materialize_hankel(seq(F2, [0, 0, 0, 0, 0, 1]), HankelShape(2, 3))
    assert left_kernel_dim(M) == 2
    # the annihilators of M form a subspace of size 2^2; oracle counts them
    assert oracles.annihilator_count(M, include_zero=True) == 4


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 2)])
def test_left_kernel_dim_vs_enumeration(rows, cols):
    elems = F2.elements()
    for data in itertools.product(elems, repeat=rows * cols):
        M = DenseMatrix(F2, rows, cols, data)
        dim = left_kernel_dim(M)
        assert oracles.annihilator_count(M, include_zero=True) == 2**dim


def test_jt_matrix_structure_u1_v3():
    y = seq(F7, [1, 2, 3])
    J = jt_matrix(y, 1, 3)
    y1, y2, y3 = y.entries
    one, zero = F7.one, F7.zero
    assert [list(J.row(i)) for i in range(3)] == [
        [y1, y2, y3],
        [one, y1, y2],
        [zero, one, y1],
    ]


def test_jt_matrix_structure_u4_v3():
    y = seq(F7, [1, 2, 3, 4, 5, 6])
    J = jt_matrix(y, 4, 3)
    e = y.entries
    assert [list(J.row(i)) for i in range(3)] == [
        [e[3], e[4], e[5]],
        [e[2], e[3], e[4]],
        [e[1], e[2], e[3]],
    ]


def test_jt_matrix_structure_u2_v5():
    y = seq(F7, [1, 2, 3, 4, 5, 6])
    J = jt_matrix(y, 2, 5)
    e = y.entries
    one, zero = F7.one, F7.zero
    assert [list(J.row(i)) for i in range(5)] == [
        [e[1], e[2], e[3], e[4], e[5]],
        [e[0], e[1], e[2], e[3], e[4]],
        [one, e[0], e[1], e[2], e[3]],
        [zero, one, e[0], e[1], e[2]],
        [zero, zero, one, e[0], e[1]],
    ]


def test_jt_matrix_validation():
    with pytest.raises(ValueError):
        jt_matrix(seq(F2, [1, 0]), 1, 3)  # wrong length
    with pytest.raises(ValueError):
        jt_matrix(SeqTuple(F2, ()), 0, 0)
    # u=0 gives a unitriangular matrix with determinant 1
    J = jt_matrix(seq(F3, [1, 2]), 0, 3)
    assert det(J) == F3.one


def _jt_definition(y, idx):
    # y_idx from the definition: index 0 reads as 1, negative indices as 0
    field = y.field
    return field.zero if idx < 0 else field.one if idx == 0 else y.entries[idx - 1]


@pytest.mark.parametrize("field", [F2, F9])
def test_jt_builders_match_definition(field):
    rng = random.Random(5)
    for u in range(5):
        for v in range(5):
            if u + v < 1:
                continue
            length = u + v - 1
            if field.order**length <= 256:
                ys = iter_seq_tuples(field, length)
            else:
                ys = (
                    seq(field, [rng.randrange(field.order) for _ in range(length)])
                    for _ in range(40)
                )
            for y in ys:
                J = jt_matrix(y, u, v)
                assert (J.rows, J.cols) == (v, v)
                assert J.data == tuple(
                    _jt_definition(y, u - i + j) for i in range(1, v + 1) for j in range(1, v + 1)
                )
                if u >= 1 and v >= 1:
                    x = jt_to_hankel(y, u, v)
                    assert x.entries == tuple(
                        _jt_definition(y, u - v + 1 + t) for t in range(2 * v - 1)
                    )


def test_jt_to_hankel_patterns():
    y = seq(F7, [1, 2, 3, 4, 5, 6])
    x = jt_to_hankel(y, 2, 5)
    assert x.entries[:3] == (F7.zero, F7.zero, F7.one)
    assert x.entries[3:] == y.entries
    y1 = seq(F7, [4])
    assert jt_to_hankel(y1, 1, 1) == y1
    x43 = jt_to_hankel(y, 4, 3)
    assert x43.entries == y.entries[1:]
    with pytest.raises(ValueError):
        jt_to_hankel(y, 0, 7)


@pytest.mark.parametrize("field", [F2, F3])
def test_jt_flip_matrix_equality(field):
    # the Hankel view of the flipped tuple is the matrix upside down
    for total in range(1, 6):
        for u in range(1, total + 1):
            v = total + 1 - u
            for y in iter_seq_tuples(field, total):
                J = jt_matrix(y, u, v)
                H = materialize_hankel(jt_to_hankel(y, u, v), HankelShape(v - 1, v - 1))
                assert [H.row(i) for i in range(v)] == [J.row(i) for i in reversed(range(v))]


@pytest.mark.parametrize("field", [F2, F3])
def test_jt_flip_det_sign(field):
    for total in range(1, 6):
        for u in range(1, total + 1):
            v = total + 1 - u
            sign = row_reversal_sign(field, v)
            for y in iter_seq_tuples(field, total):
                J = jt_matrix(y, u, v)
                H = materialize_hankel(jt_to_hankel(y, u, v), HankelShape(v - 1, v - 1))
                assert det(J) == sign * det(H)
                assert rank_gauss(J) == rank_gauss(H)


def test_rank_transpose_invariant():
    for codes in itertools.product(range(2), repeat=6):
        x = seq(F2, codes)
        for rdeg in range(-1, 6):
            for cdeg in range(-1, 6 - max(rdeg, 0) + 1):
                if rdeg + cdeg > 5:
                    continue
                # a Hankel view's transpose is the view of the swapped shape
                M = materialize_hankel(x, HankelShape(rdeg, cdeg))
                T = materialize_hankel(x, HankelShape(cdeg, rdeg))
                assert (T.rows, T.cols) == (M.cols, M.rows)
                assert all(
                    T.entry(j, i) == M.entry(i, j) for i in range(M.rows) for j in range(M.cols)
                )
                assert rank_gauss(M) == rank_gauss(T)


def test_submatrix_rank_bounded():
    rng = random.Random(11)
    for codes in itertools.product(range(2), repeat=5):
        x = seq(F2, codes)
        M = materialize_hankel(x, HankelShape(2, 2))
        r = rank_gauss(M)
        for _ in range(4):
            rows = sorted(rng.sample(range(3), rng.randint(1, 3)))
            cols = sorted(rng.sample(range(3), rng.randint(1, 3)))
            sub = DenseMatrix(F2, len(rows), len(cols), [M.entry(i, j) for i in rows for j in cols])
            assert rank_gauss(sub) <= r


def test_appending_column_changes_rank_by_at_most_one():
    for codes in itertools.product(range(3), repeat=5):
        x = seq(F3, codes)
        for p_ in range(3):
            for q_ in range(5 - p_):
                wide = rank_gauss(materialize_hankel(x, HankelShape(p_, q_ + 0)))
                narrow = rank_gauss(materialize_hankel(x, HankelShape(p_, q_ - 1)))
                assert wide - narrow in (0, 1)


def test_vec_mat_mul():
    M = identity(F3, 3)
    v = RowVector.from_codes(F3, [1, 2, 0])
    assert oracles.vec_mat_mul(v, M) == v
    with pytest.raises(ValueError):
        oracles.vec_mat_mul(RowVector.from_codes(F3, [1]), M)
    with pytest.raises(ValueError):
        oracles.vec_mat_mul(RowVector.from_codes(F2, [1, 0, 1]), M)


def test_iter_seq_tuples():
    tuples = list(iter_seq_tuples(F3, 2))
    assert len(tuples) == 9
    assert len(set(t.codes for t in tuples)) == 9
    assert tuples == [SeqTuple(F3, t) for t in itertools.product(F3.elements(), repeat=2)]
    fixed = list(iter_seq_tuples(F3, 3, seq(F3, [2])))
    assert len(fixed) == 9
    assert all(t.codes[0] == 2 for t in fixed)
    with pytest.raises(ValueError):
        list(iter_seq_tuples(F3, 1, seq(F3, [1, 2])))
    # a full prefix on a huge field touches no element table
    head = seq(F_BIG, [5, 2**31 - 2])
    assert list(iter_seq_tuples(F_BIG, 2, head)) == [head]
    assert F_BIG._elements is None


def test_dense_matrix_validation():
    with pytest.raises(ValueError):
        DenseMatrix(F2, 2, 2, (F2.one,) * 3)
    with pytest.raises(ValueError):
        DenseMatrix(F2, 1, 1, (F3.one,))
    M = identity(F2, 2)
    with pytest.raises(IndexError):
        M.entry(2, 0)


def test_seq_tuple_validation():
    with pytest.raises(ValueError):
        SeqTuple(F2, (F3.one,))
    with pytest.raises(ValueError):
        SeqTuple(F2, (F2.one, F3.one))  # mixed fields
    with pytest.raises(ValueError):
        RowVector(F3, (F3.one, F2.zero))
    for cls in (SeqTuple, RowVector):
        for field in (F2, F9, F_BIG):
            q = field.order
            assert cls.from_codes(field, [0, q - 1]).codes == (0, q - 1)
            for bad in ([-1], [0, q], [q - 1, -1, 0]):
                with pytest.raises(ValueError):
                    cls.from_codes(field, bad)
    x = seq(F2, [1, 0])
    assert len(x) == 2 and x[0] == F2.one
    assert str(x) == "(1,0)"


@pytest.mark.parametrize("field", [F2, F9])
def test_code_tuples_equal_across_constructors(field):
    codes = [c % field.order for c in (3, 0, 7, 1)]
    elems = tuple(field.element(c) for c in codes)
    for cls in (SeqTuple, RowVector):
        a, b = cls(field, elems), cls.from_codes(field, codes)
        assert a == b and hash(a) == hash(b)
        assert a.codes == b.codes == tuple(codes)
        assert a.entries == tuple(b) == elems
        assert b[1:3] == elems[1:3]
        assert all(isinstance(e, FieldElement) for e in b[1:3])
        assert b[-1] == elems[-1]
    # the two classes never compare equal, whatever their codes
    assert SeqTuple.from_codes(field, codes) != RowVector.from_codes(field, codes)
    assert SeqTuple(field, ()) != RowVector(field, ())
    assert not RowVector.from_codes(field, [0, 0]) and RowVector.from_codes(field, [0, 1])
