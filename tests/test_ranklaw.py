"""Adjacent-rank laws, the shape reduction, and kernel counting."""

from __future__ import annotations

import itertools

import pytest

import oracles
from hankelcensus.gf import FieldSpec
from hankelcensus.hankel import (
    DenseMatrix,
    HankelShape,
    SeqTuple,
    materialize_hankel,
    rank_gauss,
)
from hankelcensus.ranklaw import (
    RankPair,
    _annihilator_term,
    rank_le_fast,
    rank_pair,
    rank_via_reduction,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def seq(field, codes):
    return SeqTuple.from_codes(field, codes)


def test_rank_pair_zero():
    assert rank_pair(seq(F3, [0] * 5), 2, 2) == RankPair(0, 0)


def test_rank_pair_fixture():
    # x = (0,0,0,0,0,1): both adjacent views have a single nonzero
    # anti-diagonal corner, so both ranks are 1
    x = seq(F2, [0, 0, 0, 0, 0, 1])
    pair = rank_pair(x, 3, 3)
    assert pair == RankPair(1, 1)
    assert pair.rank_tall == rank_gauss(materialize_hankel(x, HankelShape(3, 2)))
    assert pair.rank_wide == rank_gauss(materialize_hankel(x, HankelShape(2, 3)))


def test_rank_pair_saturation():
    # whenever the tall rank exceeds rdeg, the wide rank equals rdeg
    for codes in itertools.product(range(2), repeat=6):
        x = seq(F2, codes)
        for rdeg in range(4):
            for cdeg in range(7 - rdeg):
                pair = rank_pair(x, rdeg, cdeg)
                if pair.rank_tall > rdeg:
                    assert pair.rank_wide == rdeg


def test_rank_pair_errors():
    x = seq(F2, [0, 1, 0])
    with pytest.raises(ValueError):
        rank_pair(x, -1, 2)
    with pytest.raises(ValueError):
        rank_pair(x, 2, 2)


def test_rank_le_fast_examples():
    zeros = seq(F2, [0] * 6)
    assert rank_le_fast(zeros, 2, 3, 2)
    assert rank_le_fast(seq(F2, [0, 0, 0, 0, 0, 1]), 2, 3, 1)
    assert not rank_le_fast(seq(F2, [0, 0, 0, 0, 0, 1]), 2, 3, 0)


@pytest.mark.parametrize(
    "field,m,n",
    [(F2, 3, 3), (F3, 2, 2), (F2, 1, 4), (F3, 3, 1)],
)
def test_rank_le_fast_exhaustive_agreement(field, m, n):
    q = field.order
    for codes in itertools.product(range(q), repeat=m + n + 1):
        x = seq(field, codes)
        rank = rank_gauss(materialize_hankel(x, HankelShape(m, n)))
        for r in range(min(m, n) + 1):
            assert rank_le_fast(x, m, n, r) == (rank <= r)


def test_rank_le_fast_errors():
    x = seq(F2, [0] * 6)
    with pytest.raises(ValueError):
        rank_le_fast(x, 2, 3, 3)  # r > m
    with pytest.raises(ValueError):
        rank_le_fast(x, 3, 3, 2)  # m+n exceeds tuple
    with pytest.raises(ValueError):
        rank_le_fast(x, 2, 3, -1)


def test_rank_via_reduction():
    x = seq(F2, [0, 0, 0, 0, 0, 1])
    rank, shape = rank_via_reduction(x, 2, 3)
    assert rank == 1 and (shape.rdeg, shape.cdeg) == (1, 4)
    for codes in itertools.product(range(2), repeat=6):
        xs = seq(F2, codes)
        for m in range(3):
            n = 5 - m
            rank, _ = rank_via_reduction(xs, m, n)
            assert rank == rank_gauss(materialize_hankel(xs, HankelShape(m, n)))


def test_rank_via_reduction_rejects_negative_degrees():
    x = seq(F2, [1])
    for m, n in ((-1, 1), (1, -1), (-2, 2)):
        with pytest.raises(ValueError, match=f"need m, n >= 0, got m={m}, n={n}"):
            rank_via_reduction(x, m, n)


def test_elkies_zero_tuple():
    # zero matrix: lhs = (q-1); rhs = (q^2 - 1) - q (q - 1) = q - 1
    assert _annihilator_term(F2, (0, 0, 0), 1, 1) == (0, 0, 1)
    assert _annihilator_term(F3, (0, 0, 0), 1, 1) == (0, 0, 2)
    assert oracles.elkies_identity_sides(seq(F3, [0, 0, 0]), 1, 1) == (2, 2)


def test_elkies_full_rank_tuple():
    # H_{1,1}(0,1,0) = [[0,1],[1,0]] has rank 2 > m, so both sides vanish
    assert _annihilator_term(F2, (0, 1, 0), 1, 1) == (2, 1, 0)
    assert oracles.elkies_identity_sides(seq(F2, [0, 1, 0]), 1, 1) == (0, 0)


def test_elkies_exhaustive_with_literal_oracle():
    # the identity suite's term and rank test against vector enumeration
    for codes in itertools.product(range(3), repeat=5):
        full, _, term = _annihilator_term(F3, codes, 2, 2)
        assert 2 * (full <= 2) == term == oracles.elkies_rhs_literal(seq(F3, codes), 2, 2)


def test_kernel_count_examples():
    # the rank-nullity oracle on minor ranks
    assert oracles.kernel_count(DenseMatrix(F5, 2, 2, [F5.one, F5.zero, F5.zero, F5.one])) == 0
    assert oracles.kernel_count(DenseMatrix(F3, 2, 3, [F3.zero] * 6)) == 8
    M = materialize_hankel(seq(F2, [0, 0, 0, 1]), HankelShape(1, 2))
    assert oracles.kernel_count(M) == 1
    assert oracles.annihilator_count(M) == 1


@pytest.mark.parametrize("field,rows,cols", [(F2, 2, 2), (F3, 2, 2), (F2, 3, 2)])
def test_kernel_count_vs_roll_call(field, rows, cols):
    elems = field.elements()
    for data in itertools.product(elems, repeat=rows * cols):
        M = DenseMatrix(field, rows, cols, data)
        assert oracles.kernel_count(M) == oracles.annihilator_count(M)
