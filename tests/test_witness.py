"""Tail solver, truncation map, nice predicates, and the entry bijection.

The gadgets run on GF(2) and GF(3) exhaustively, and on one field of each
arithmetic class on random cases; every annihilation they claim is checked
with oracles.vec_mat_mul or column sums in FieldElement arithmetic.  The
kernel-counting term the identity suite sums is checked against vector
enumeration and minor ranks.
"""

from __future__ import annotations

import itertools
import random

import pytest

import oracles
from hankelcensus.gf import FieldSpec
from hankelcensus.hankel import (
    HankelShape,
    RowVector,
    SeqTuple,
    iter_seq_tuples,
    materialize_hankel,
)
from hankelcensus.ranklaw import _annihilator_term
from hankelcensus.witness import (
    NiceContext,
    R_inv,
    R_map,
    alpha,
    beta,
    is_strongly_nice,
    is_weakly_nice,
    last,
    solve_tail,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)

# one field per arithmetic class: a prime; log tables for p = 2 and odd p,
# and past q = 1024; polynomial arithmetic above 2^16 for p = 2 and odd p
CLASS_FIELDS = [
    FieldSpec(13),
    FieldSpec.from_order(8),
    FieldSpec.from_order(9),
    FieldSpec(2, 11, [1, 0, 1] + [0] * 8 + [1]),
    FieldSpec(2, 17, [1, 0, 0, 1] + [0] * 13 + [1]),
    FieldSpec(3, 11, [2, 0, 1] + [0] * 8 + [1]),
]


def seq(field, codes):
    return SeqTuple.from_codes(field, codes)


def vec(field, codes):
    return RowVector.from_codes(field, codes)


def annihilates(v, x, m, n):
    M = materialize_hankel(x, HankelShape(m, n))
    product = oracles.vec_mat_mul(v, M)
    return all(e == x.field.zero for e in product.entries)


def test_last():
    assert last(vec(F3, [1, 0, 2])) == F3.element(2)
    assert last(vec(F3, [0, 0, 0])) == F3.zero
    with pytest.raises(ValueError):
        last(RowVector(F3, ()))
    for codes in itertools.product(range(3), repeat=2):
        assert last(R_inv(vec(F3, codes))) == F3.zero


def test_R_map_examples():
    assert R_map(vec(F3, [1, 2, 0])) == vec(F3, [1, 2])
    with pytest.raises(ValueError):
        R_map(vec(F3, [1, 2]))
    assert R_map(vec(F3, [0])) == RowVector(F3, ())


def test_R_round_trip_exhaustive():
    for m in range(1, 4):
        image = set()
        for codes in itertools.product(range(3), repeat=m):
            v = vec(F3, list(codes) + [0])
            w = R_map(v)
            assert R_inv(w) == v
            assert R_map(R_inv(w)) == w
            if any(codes):
                image.add(w.codes)
        nonzero = {c for c in itertools.product(range(3), repeat=m) if any(c)}
        assert image == nonzero  # restriction to nonzero vectors is onto


def test_solve_tail_unit_vector():
    # v = e_m forces every tail entry to zero, whatever the head
    for head_codes in itertools.product(range(3), repeat=2):
        v = vec(F3, [0, 0, 1])
        out = solve_tail(v, seq(F3, head_codes), 2)
        assert out.codes == head_codes + (0, 0, 0)
        assert annihilates(v, out, 2, 2)


def test_solve_tail_fixture():
    out = solve_tail(vec(F2, [1, 1]), seq(F2, [1]), 1)
    assert out == seq(F2, [1, 1, 1])
    assert annihilates(vec(F2, [1, 1]), out, 1, 1)


@pytest.mark.parametrize("field", [F2, F3])
def test_solve_tail_outputs_annihilate(field):
    q = field.order
    for m in range(3):
        for n in range(3):
            for vcodes in itertools.product(range(q), repeat=m):
                for vlast in range(1, q):
                    v = vec(field, list(vcodes) + [vlast])
                    for head in iter_seq_tuples(field, m):
                        out = solve_tail(v, head, n)
                        assert out.entries[:m] == head.entries
                        assert annihilates(v, out, m, n)


@pytest.mark.parametrize("field", CLASS_FIELDS, ids=str)
def test_solve_tail_in_every_field_class(field):
    q = field.order
    rng = random.Random(q)
    for _ in range(25):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        vcodes = [rng.choice((0, rng.randrange(q))) for _ in range(m)] + [rng.randrange(1, q)]
        v = vec(field, vcodes)
        head = seq(field, [rng.randrange(q) for _ in range(m)])
        out = solve_tail(v, head, n)
        assert len(out) == m + n + 1 and out.codes[:m] == head.codes
        assert annihilates(v, out, m, n)


def test_solve_tail_injective_and_exact():
    # over GF(2), m=2, n=1: the solve_tail outputs are exactly the
    # annihilating tuples, one per head
    v = vec(F2, [1, 0, 1])
    outputs = {solve_tail(v, head, 1).codes for head in iter_seq_tuples(F2, 2)}
    assert len(outputs) == 4
    brute = {
        x.codes for x in iter_seq_tuples(F2, 4) if annihilates(v, x, 2, 1)
    }
    assert outputs == brute


def test_solve_tail_errors():
    with pytest.raises(ValueError):
        solve_tail(vec(F2, [1, 0]), seq(F2, [1]), 1)  # last(v) = 0
    with pytest.raises(ValueError):
        solve_tail(vec(F2, [1, 1]), seq(F2, [1, 0]), 1)  # wrong head length
    with pytest.raises(ValueError):
        solve_tail(vec(F2, [1, 1]), seq(F3, [1]), 1)  # field mismatch


def test_nice_context_derived_index():
    ctx = NiceContext(F3, 2, 1, vec(F3, [1, 2, 0]), SeqTuple(F3, ()))
    assert ctx.j == 1
    ctx = NiceContext(F3, 2, 1, vec(F3, [2, 0, 0]), SeqTuple(F3, ()))
    assert ctx.j == 0


def test_nice_context_validation():
    empty = SeqTuple(F3, ())
    with pytest.raises(ValueError):
        NiceContext(F3, 2, 1, vec(F3, [0, 0, 0]), empty)  # zero v
    with pytest.raises(ValueError):
        NiceContext(F3, 2, 1, vec(F3, [0, 1, 1]), empty)  # last != 0
    with pytest.raises(ValueError):
        NiceContext(F3, 2, 1, vec(F3, [1, 0]), empty)  # wrong length
    with pytest.raises(ValueError):
        NiceContext(F3, 2, 1, vec(F3, [1, 0, 0]), seq(F3, [0, 0, 0]))  # k > n+1


def test_nice_predicates_zero_tuple():
    ctx = NiceContext(F2, 2, 1, vec(F2, [1, 1, 0]), seq(F2, [0]))
    zeros = seq(F2, [0, 0, 0, 0])
    assert is_weakly_nice(zeros, ctx)
    assert is_strongly_nice(zeros, ctx)
    with pytest.raises(ValueError):
        is_weakly_nice(seq(F2, [0, 0]), ctx)


def test_weak_is_q_times_strong():
    # every admissible (v, a) for GF(2), m=2, n=1, k=1
    for vcodes in itertools.product(range(2), repeat=2):
        if not any(vcodes):
            continue
        v = vec(F2, list(vcodes) + [0])
        for a0 in range(2):
            ctx = NiceContext(F2, 2, 1, v, seq(F2, [a0]))
            weak = [x for x in iter_seq_tuples(F2, 4) if is_weakly_nice(x, ctx)]
            strong = [x for x in iter_seq_tuples(F2, 4) if is_strongly_nice(x, ctx)]
            assert len(weak) == 2 * len(strong)


def test_alpha_beta_round_trip_exhaustive():
    for vcodes in itertools.product(range(2), repeat=2):
        if not any(vcodes):
            continue
        v = vec(F2, list(vcodes) + [0])
        ctx = NiceContext(F2, 2, 1, v, SeqTuple(F2, ()))
        for x in iter_seq_tuples(F2, 4):
            if is_strongly_nice(x, ctx):
                for y in F2.elements():
                    w = alpha(y, x, ctx)
                    assert is_weakly_nice(w, ctx)
                    assert beta(w, ctx) == (y, x)
            if is_weakly_nice(x, ctx):
                y, s = beta(x, ctx)
                assert is_strongly_nice(s, ctx)
                assert alpha(y, s, ctx) == x


@pytest.mark.parametrize("field", CLASS_FIELDS, ids=str)
def test_alpha_beta_round_trip_in_every_field_class(field):
    q = field.order
    rng = random.Random(q)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(0, 2)
        vcodes = [rng.choice((0, rng.randrange(q))) for _ in range(m)]
        vcodes[rng.randrange(m)] = rng.randrange(1, q)
        v = vec(field, vcodes + [0])
        j = max(i for i, c in enumerate(vcodes) if c)
        # a strongly nice tuple: x_j..x_{j+n+1} follow from the entries
        # before them, and the entries after them are free
        head = seq(field, [rng.randrange(q) for _ in range(j)])
        x = solve_tail(vec(field, vcodes[: j + 1]), head, n + 1)
        x = seq(field, x.codes + tuple(rng.randrange(q) for _ in range(m - 1 - j)))
        assert oracles.annihilates(R_map(v), x, n + 2)
        ctx = NiceContext(field, m, n, v, seq(field, x.codes[: rng.randint(0, n + 1)]))
        for y in (field.zero, field.one, field.element(rng.randrange(q))):
            w = alpha(y, x, ctx)
            assert oracles.annihilates(v, w, n + 1)
            assert beta(w, ctx) == (y, x)


def test_alpha_changes_single_entry():
    v = vec(F3, [1, 0, 0])
    ctx = NiceContext(F3, 2, 1, v, SeqTuple(F3, ()))
    pos = ctx.j + ctx.n + 1
    for x in iter_seq_tuples(F3, 4):
        if not is_strongly_nice(x, ctx):
            continue
        for y in F3.elements():
            w = alpha(y, x, ctx)
            assert w.entries[pos] == y
            assert all(w.entries[i] == x.entries[i] for i in range(4) if i != pos)


def test_alpha_beta_preconditions():
    v = vec(F2, [1, 0, 0])
    ctx = NiceContext(F2, 2, 1, v, SeqTuple(F2, ()))
    # x = (1,0,0,0): v H x has first coordinate 1, so x is not weakly nice
    bad = seq(F2, [1, 0, 0, 0])
    assert not is_weakly_nice(bad, ctx)
    with pytest.raises(ValueError):
        beta(bad, ctx)
    assert not is_strongly_nice(bad, ctx)
    with pytest.raises(ValueError):
        alpha(F2.one, bad, ctx)


def test_freed_entry_unconstrained():
    v = vec(F2, [1, 1, 0])
    ctx = NiceContext(F2, 2, 1, v, seq(F2, [1]))
    pos = ctx.j + ctx.n + 1
    for x in iter_seq_tuples(F2, 4, seq(F2, [1])):
        if not is_weakly_nice(x, ctx):
            continue
        for y in F2.elements():
            mutated = SeqTuple(F2, x.entries[:pos] + (y,) + x.entries[pos + 1 :])
            assert is_weakly_nice(mutated, ctx)


def test_sumlast_fixed_values():
    # (q-1) q^{2m-k} at the three pinned parameter points
    assert oracles.sumlast_sides(F2, 1, 1, SeqTuple(F2, ())) == (4, 4)
    for a0 in range(2):
        assert oracles.sumlast_sides(F2, 2, 2, seq(F2, [a0])) == (8, 8)
    for a0 in range(3):
        assert oracles.sumlast_sides(F3, 1, 1, seq(F3, [a0])) == (6, 6)


def test_sumlast_literal_mode_agrees():
    # the identity suite's term, summed over every completion, against
    # vector enumeration and against minor ranks
    for field in (F2, F3):
        q = field.order
        for m in range(1, 3):
            for n in range(2):
                for k in range(min(m, n + 1) + 1):
                    for a in iter_seq_tuples(field, k):
                        completions = list(iter_seq_tuples(field, m + n + 1, a))
                        summed = sum(_annihilator_term(field, x.codes, m, n)[2] for x in completions)
                        literal = sum(oracles.elkies_rhs_literal(x, m, n) for x in completions)
                        rhs = (q - 1) * q ** (2 * m - k)
                        assert summed == literal == rhs
                        assert oracles.sumlast_sides(field, m, n, a) == (summed, rhs)
