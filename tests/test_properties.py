"""Property tests of the fast field and elimination paths against slow ones.

Fields are drawn at random in five classes: primes below 2^31, and
extension fields with random irreducible moduli that are small (p = 2 or
odd p), past q = 1024 with log tables, or above the table limit, where
polynomial arithmetic runs.  Every test runs once per class.  Field code
operations, and the element operations on them, are checked against
polynomial arithmetic and digit-wise addition, on random pairs and on
every pair of every built-in extension field; rank and determinant
against the minor and Leibniz oracles, which use no elimination.  The
prefix-tree walk behind the exhaustive counts is checked against a flat
sweep that runs one rank kernel call per tuple, on small primes in place
of the random ones, and on heads that leave two, one or no entries free
over GF(2, 3, 4, 5, 9), where the node of the entry before the last
settles the last entry; and its blocks, at every field size, to cover
each completion once.  In the table class, where the flat sweep reaches one
free entry only, the orbit blocks of two free entries are checked against
one unsplit walk, and so are the blocks of three and four free entries
over GF(2, 3, 4, 5, 7, 8, 9, 25, 27).  The sampler's lockstep elimination
is checked against one kernel call per view.  The kernel-counting term
that the identity suite sums, and the adjacent rank pair, are checked
against minor ranks of materialized views.  Runs are derandomized, so
every run draws the same examples.
"""

from __future__ import annotations

import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hankelcensus.census import _tally_ranks, _walk_block, _walk_blocks
from hankelcensus.gf import (
    _TABLE_LIMIT,
    BUILTIN_ORDERS,
    FieldSpec,
    _is_irreducible,
    _is_prime,
    _mul_codes,
)
from hankelcensus.hankel import (
    DenseMatrix,
    HankelShape,
    SeqTuple,
    _hankel_code_rows,
    _lockstep_rank_le,
    _pivot_loop,
    _rank_codes,
    det,
    materialize_hankel,
    rank_gauss,
)
from hankelcensus.ranklaw import RankPair, _annihilator_term, _reduced_shape, rank_pair

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=30)

# (p, d) choices per class; None stands for a random prime below 2^31
CLASSES = {
    "prime": [None],
    "small-char2": [(2, 2), (2, 3), (2, 5), (2, 6)],
    "small-odd": [(3, 2), (3, 3), (5, 2), (7, 2)],
    "table": [(2, 11), (3, 7), (5, 5)],
    "above-limit": [(2, 17), (3, 11), (5, 7)],
}
WITH_TABLES = ["small-char2", "small-odd", "table"]


@st.composite
def fields(draw, name):
    choice = draw(st.sampled_from(CLASSES[name]))
    if choice is None:
        n = draw(st.integers(2, 2**31 - 1))
        while not _is_prime(n):
            n -= 1
        return FieldSpec(n)
    p, d = choice
    return first_irreducible(p, d, draw(st.integers(0, p**d - 1)))


def first_irreducible(p, d, start=0):
    """GF(p^d) by the first irreducible monic modulus at or after start.

    A modulus is read by its low coefficients as a base-p number.
    """
    for low in itertools.count(start):
        modulus = [(low // p**i) % p for i in range(d)] + [1]
        if modulus[0] and _is_irreducible(modulus, p):
            return FieldSpec(p, d, modulus)


@st.composite
def matrices(draw, name, max_dim=4, square=False):
    field = draw(fields(name))
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    # now and then an empty shape: rank 0, and det 1 for 0 x 0
    # (test_empty_shapes covers them in every class for sure)
    empty = [(0, 0)] if square else [(0, cols), (rows, 0), (0, 0)]
    rows, cols = draw(st.sampled_from([(rows, cols)] * 9 + empty))
    # few distinct values, so that dependent rows and zero pivots are common
    palette = draw(st.lists(st.integers(1, field.order - 1), min_size=1, max_size=3))
    codes = draw(
        st.lists(st.sampled_from([0] + palette), min_size=rows * cols, max_size=rows * cols)
    )
    data = tuple(field.element(c) for c in codes)
    return DenseMatrix(field, rows, cols, data)


def test_size_classes_straddle_the_table_limit():
    assert all(p**d <= 64 for p, d in CLASSES["small-char2"] + CLASSES["small-odd"])
    assert all(1024 < p**d <= _TABLE_LIMIT for p, d in CLASSES["table"])
    assert all(p**d > _TABLE_LIMIT for p, d in CLASSES["above-limit"])


@pytest.mark.parametrize("name", list(CLASSES))
def test_tables_exist_only_for_extensions_within_the_limit(name):
    @PROPS
    @given(fields(name))
    def check(spec):
        tab = spec.tables
        if name in WITH_TABLES:
            assert all(isinstance(part, list) for part in tab)
            assert len(tab.log) == spec.order
        else:
            assert tab is None

    check()


def check_code_ops(spec, a, b):
    """Code operations, and the element operations built on them, against
    table-free arithmetic: digit-wise sums mod p, and products by
    polynomial multiplication and reduction (gf._mul_codes)."""
    p = spec.p
    raw_mul = partial(_mul_codes, p=p, d=spec.d, modulus=spec.modulus)
    da, db = spec.decode(a), spec.decode(b)
    ea, eb = spec.element(a), spec.element(b)
    add = spec.encode([(x + y) % p for x, y in zip(da, db)])
    sub = spec.encode([(x - y) % p for x, y in zip(da, db)])
    neg = spec.encode([-x % p for x in da])
    mul = raw_mul(a, b)
    assert spec.add_code(a, b) == (ea + eb).code == add
    assert spec.sub_code(a, b) == (ea - eb).code == sub
    assert spec.neg_code(a) == (-ea).code == neg
    assert spec.mul_code(a, b) == (ea * eb).code == mul
    if a:
        inv = spec.inv_code(a)
        assert raw_mul(a, inv) == 1 and (spec.one / ea).code == inv


@pytest.mark.parametrize("name", list(CLASSES))
def test_code_ops_match_polynomial_arithmetic(name):
    @PROPS
    @given(fields(name), st.data())
    def check(spec, data):
        q = spec.order
        codes = st.integers(0, q - 1)
        for _ in range(20):
            check_code_ops(spec, data.draw(codes), data.draw(codes))
        for a in (0, 1, q - 1):
            assert spec.mul_code(a, 0) == spec.mul_code(0, a) == 0
            assert spec.add_code(a, 0) == spec.add_code(0, a) == a
            assert spec.add_code(a, spec.neg_code(a)) == 0

    check()


def test_inverse_above_the_table_limit_matches_fermat():
    # inv_code runs the extended Euclidean algorithm there; a^(q-2) is the
    # independent route
    @PROPS
    @given(fields("above-limit"), st.data())
    def check(spec, data):
        q = spec.order
        for a in data.draw(st.lists(st.integers(1, q - 1), min_size=3, max_size=3)):
            assert spec.inv_code(a) == spec._pow_code_raw(a, q - 2)

    check()


@pytest.mark.parametrize("name", list(CLASSES))
def test_pow_code_raw_matches_repeated_products(name):
    # _pow_code_raw runs polynomial powers in every field; mul_code runs
    # mod p, on log tables or on polynomial products.  0^0 is 1
    @PROPS
    @given(fields(name), st.integers(0, 2**31))
    def check(spec, code):
        q = spec.order
        for a in (0, 1, q - 1, code % q):
            power = 1
            for e in range(12):
                assert spec._pow_code_raw(a, e) == power
                power = spec.mul_code(power, a)
            assert spec._pow_code_raw(a, q - 1) == (1 if a else 0)

    check()


@pytest.mark.parametrize("q", BUILTIN_ORDERS)
def test_builtin_code_ops_match_table_free_arithmetic(q):
    # every pair of every built-in extension field: the oracles in
    # oracles.py compute with element arithmetic, which runs on log tables
    spec = FieldSpec.from_order(q)
    for a, b in itertools.product(range(q), repeat=2):
        check_code_ops(spec, a, b)


@pytest.mark.parametrize("name", list(CLASSES))
def test_rank_matches_minor_oracle(name):
    @PROPS
    @given(matrices(name))
    def check(M):
        assert rank_gauss(M) == oracles.minor_rank(M)

    check()


@pytest.mark.parametrize("name", list(CLASSES))
def test_det_matches_leibniz(name):
    @PROPS
    @given(matrices(name, max_dim=5, square=True))
    def check(M):
        assert det(M) == oracles.leibniz_det(M)

    check()


# a 5 x 5 matrix with a zero at (0, 0), so that elimination swaps rows
# first, and with nonzero entries in every row of the first column, so
# that every step has the fifth row to clear
FULL_5X5 = ((0, 1, 3, 2, 2), (1, 1, 1, 2, 3), (2, 0, 3, 1, 3), (2, 2, 0, 1, 1), (3, 1, 1, 1, 0))


@pytest.mark.parametrize("name", list(CLASSES))
def test_det_of_a_fixed_full_rank_5x5(name):
    # the random draws above hold too few 5 x 5 matrices with a pivot in
    # every row to catch a step that skips the fifth row
    p, d = (2**31 - 1, 1) if name == "prime" else CLASSES[name][0]
    spec = first_irreducible(p, d)
    data = tuple(spec.element(c) for row in FULL_5X5 for c in row)
    M = DenseMatrix(spec, 5, 5, data)
    expected = oracles.leibniz_det(M)
    assert expected != spec.zero and oracles.minor_rank(M) == 5
    assert det(M) == expected and rank_gauss(M) == 5


@pytest.mark.parametrize("name", list(CLASSES))
def test_kernel_limit_reports_excess(name):
    @PROPS
    @given(matrices(name), st.integers(0, 4))
    def check(M, limit):
        rank = oracles.minor_rank(M)
        expected = rank if rank <= limit else limit + 1
        assert _pivot_loop(M.field.ops, M.code_rows(), limit) == expected
        assert _rank_codes(M.field, M.code_rows(), limit) == expected

    check()


@pytest.mark.parametrize("name", list(CLASSES))
def test_empty_shapes(name):
    # matrices() draws empty shapes only now and then; here every class has them
    @PROPS
    @given(fields(name), st.integers(0, 4))
    def check(spec, limit):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            M = DenseMatrix(spec, rows, cols, ())
            assert rank_gauss(M) == oracles.minor_rank(M) == 0
            assert _pivot_loop(spec.ops, M.code_rows(), limit) == 0
            assert _rank_codes(spec, M.code_rows(), limit) == 0
        M = DenseMatrix(spec, 0, 0, ())
        assert det(M) == oracles.leibniz_det(M) == spec.one

    check()


def reference_step(ops, rows, top, piv, col):
    """row_i <- row_i - (f/a)*prow through the field's code operations only."""
    sub, mul = ops.sub, ops.mul
    rows[top], rows[piv] = rows[piv], rows[top]
    prow = rows[top]
    pinv = ops.inv(prow[col])
    for i in range(top + 1, len(rows)):
        f = mul(rows[i][col], pinv)
        rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], prow)]


@pytest.mark.parametrize("name", list(CLASSES))
def test_log_kernel_matches_generic_elimination(name):
    # larger shapes than the minor oracle can afford; the kernel's step and
    # the reference step both subtract (f/a)*prow, so the rows agree as well
    @PROPS
    @given(matrices(name, max_dim=7))
    def check(M):
        limit = min(M.rows, M.cols)
        expected_rows, rows = M.code_rows(), M.code_rows()
        expected = _pivot_loop(M.field.ops, expected_rows, limit, reference_step)
        assert _pivot_loop(M.field.ops, rows, limit) == expected
        assert rows == expected_rows

    check()


@pytest.mark.parametrize("name", list(CLASSES))
def test_sub_mul_kernel_matches_code_operations(name):
    @PROPS
    @given(fields(name), st.data())
    def check(spec, data):
        codes = st.integers(0, spec.order - 1)
        size = data.draw(st.integers(1, 5))
        v = data.draw(st.lists(codes, min_size=size, max_size=size))
        b = data.draw(st.lists(codes, min_size=size, max_size=size))
        f = data.draw(st.one_of(st.just(0), codes))
        assert spec.ops.sub_mul(v, f, b) == [
            spec.sub_code(x, spec.mul_code(f, y)) for x, y in zip(v, b)
        ]

    check()


def linear_recurrence(spec, init, coeffs, length):
    """x_t = sum_i coeffs[i-1] * x_{t-i} after init: every view has rank <= len(init)."""
    x = list(init)
    while len(x) < length:
        acc = 0
        for i, c in enumerate(coeffs, 1):
            acc = spec.add_code(acc, spec.mul_code(c, x[-i]))
        x.append(acc)
    return x[:length]


@st.composite
def identity_cases(draw, name):
    """(x, m, n) with m <= n+2, where x has random entries or follows a
    linear recurrence of order 1 to 3.  Over a large field a random x
    almost always has full-rank views, and both identity sides are 0.
    The identity holds for m <= n+1; the summed identity also runs the
    term at m = n+2."""
    spec = draw(fields(name))
    n = draw(st.integers(0, 3))
    m = draw(st.integers(0, n + 2))
    codes = st.integers(0, spec.order - 1)
    if draw(st.booleans()):
        order = draw(st.integers(1, 3))
        init = draw(st.lists(codes, min_size=order, max_size=order))
        coeffs = draw(st.lists(codes, min_size=order, max_size=order))
        x = linear_recurrence(spec, init, coeffs, m + n + 1)
    else:
        x = draw(st.lists(codes, min_size=m + n + 1, max_size=m + n + 1))
    return SeqTuple.from_codes(spec, x), m, n


@pytest.mark.parametrize("name", list(CLASSES))
def test_identity_sides_and_rank_pair_match_dense_matrices(name):
    # the identity suite's term, and the adjacent rank pair, against minor
    # ranks of materialized views
    @PROPS
    @given(identity_cases(name))
    def check(case):
        x, m, n = case
        full = oracles.minor_rank(materialize_hankel(x, HankelShape(m, n)))
        shaved = oracles.minor_rank(materialize_hankel(x, HankelShape(m - 1, n + 1)))
        lhs, rhs = oracles.elkies_identity_sides(x, m, n)
        assert _annihilator_term(x.field, x.codes, m, n) == (full, shaved, rhs)
        if m <= n + 1:
            assert lhs == rhs
        assert rank_pair(x, m, n + 1) == RankPair(full, shaved)

    check()


@st.composite
def lockstep_cases(draw, name):
    """(field, batch, rdeg, cdeg, limit) with zero pivots and low ranks common.

    Each tuple draws its entries from zero and a few nonzero values, or
    from every code, or follows a linear recurrence of order 1 to 3, whose
    views have rank at most that order.  Limits reach min(rows, cols) + 1,
    where every view counts.
    """
    spec = draw(fields(name))
    rdeg, cdeg = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    limit = draw(st.integers(0, max(0, min(rdeg, cdeg) + 2)))
    palette = draw(st.lists(st.integers(1, spec.order - 1), min_size=1, max_size=3))
    few = st.sampled_from([0] + palette)
    codes = st.integers(0, spec.order - 1)
    length = max(0, rdeg + cdeg + 1)
    batch = []
    for _ in range(draw(st.sampled_from((1, 2, 7, 40)))):
        kind = draw(st.sampled_from(("few", "any", "recurrence")))
        if kind == "recurrence":
            order = draw(st.integers(1, 3))
            init = draw(st.lists(codes, min_size=order, max_size=order))
            coeffs = draw(st.lists(codes, min_size=order, max_size=order))
            batch.append(linear_recurrence(spec, init, coeffs, length))
        else:
            entries = few if kind == "few" else st.one_of(few, codes)
            batch.append(draw(st.lists(entries, min_size=length, max_size=length)))
    return spec, batch, rdeg, cdeg, limit


def columns(batch):
    """The batch as _lockstep_rank_le takes it: column t holds x_t of every tuple.

    A batch of empty tuples gets one column of zeros, which the views never
    read, so that the lanes can still be counted.
    """
    return [list(col) for col in zip(*batch)] or [[0] * len(batch)]


def one_call_per_view(spec, batch, rdeg, cdeg, limit):
    rows = (_hankel_code_rows(x, rdeg, cdeg) for x in batch)
    return sum(_pivot_loop(spec.ops, r, limit) <= limit for r in rows)


@pytest.mark.parametrize("name", list(CLASSES))
def test_lockstep_matches_one_kernel_call_per_view(name):
    @PROPS
    @given(lockstep_cases(name))
    def check(case):
        spec, batch, rdeg, cdeg, limit = case
        count = partial(_lockstep_rank_le, spec.ops)
        want = one_call_per_view(spec, batch, rdeg, cdeg, limit)
        assert count(columns(batch), rdeg, cdeg, limit) == want
        # lane by lane too, so that errors cannot cancel in the sum
        for x in batch:
            want = one_call_per_view(spec, [x], rdeg, cdeg, limit)
            assert count(columns([x]), rdeg, cdeg, limit) == want

    check()


@pytest.mark.parametrize("name", list(CLASSES))
def test_lockstep_decides_zero_pivots_and_zero_multipliers(name):
    # hand-made 3 x 3 lanes: a zero pivot at (0, 0) on a full-rank and on
    # a singular view, a zero pivot at (1, 1) only, a zero multiplier below
    # a nonzero pivot, rank 1 and rank 0; limit 0 runs no step, limit 3
    # needs none
    @PROPS
    @given(fields(name), st.data())
    def check(spec, data):
        a, b, c = (data.draw(st.integers(1, spec.order - 1)) for _ in range(3))
        neg, mul = spec.neg_code, spec.mul_code
        batch = [
            [0, 0, a, 0, b],  # pivot (0, 0) zero, rank 3
            [0, a, 0, 0, 0],  # pivot (0, 0) zero, rank 2
            [a, b, mul(b, mul(b, spec.inv_code(a))), c, 0],  # pivot (1, 1) zero
            [a, 0, b, c, 0],  # row 1 has multiplier 0 at step 0
            [a, 0, 0, 0, 0],  # rank 1
            [0, 0, 0, 0, 0],  # rank 0
            [a, neg(a), a, neg(a), a],  # rank 1
            [a, b, c, a, b],
        ]
        count = partial(_lockstep_rank_le, spec.ops)
        for limit in (0, 1, 2, 3):
            want = one_call_per_view(spec, batch, 2, 2, limit)
            assert count(columns(batch), 2, 2, limit) == want
            for x in batch:  # batches of one
                want = one_call_per_view(spec, [x], 2, 2, limit)
                assert count(columns([x]), 2, 2, limit) == want

    check()


def flat_tallies(spec, head, free, shape, limit):
    """The per-tuple sweep the walk replaced: one kernel call per completion."""
    nrows, ncols = shape[0] + 1, shape[1] + 1
    limit = min(limit, nrows, ncols)
    tallies = [0] * (limit + 2)
    for rest in itertools.product(range(spec.order), repeat=free):
        x = list(head) + list(rest)
        tallies[_pivot_loop(spec.ops, [x[i : i + ncols] for i in range(nrows)], limit)] += 1
    return tallies


WALK_BUDGET = 4096  # most completions the flat sweep runs per example


@st.composite
def walk_cases(draw, name):
    """(field, m, n, r, head) in all three regimes, with Q^free <= WALK_BUDGET.

    Heads range from empty to the whole tuple; "saturated" heads already
    give the first r+1 columns of the reduced view full rank, and
    "all-zero" heads are nonempty zero heads that leave two free entries
    or more where the budget allows (one in the table class, none above
    the limit), so the walk runs one block per scaling orbit.
    """
    if name == "prime":
        spec = FieldSpec(draw(st.sampled_from((2, 3, 5, 7, 11, 13))))
    else:
        spec = draw(fields(name))
    q = spec.order
    free_max = 0
    # above the table limit one rank costs about a millisecond, so the flat
    # sweep there affords whole tuples only
    while name != "above-limit" and q ** (free_max + 1) <= WALK_BUDGET:
        free_max += 1
    regime = draw(st.sampled_from(("standard", "full-width", "past-min")))
    if regime == "full-width":
        n = draw(st.integers(0, 3))
        m = r = n + 1
    else:
        m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        if regime == "standard":
            r = draw(st.integers(0, min(m, n)))
        else:
            r = draw(st.integers(min(m, n) + 1, min(m, n) + 2))
    length = m + n + 1
    rows = min(_reduced_shape(m, n, r)) + 1  # column length of the walked view
    lowest = max(0, length - free_max)
    kind = draw(st.sampled_from(("empty", "full", "random", "saturated", "all-zero")))
    saturated = kind == "saturated" and r < rows and r + rows <= length
    if kind == "empty":
        k = lowest
    elif kind == "all-zero":
        lo = max(1, lowest)
        k = draw(st.integers(lo, max(lo, length - 2)))
        return spec, m, n, r, [0] * k
    elif kind == "full":
        k = length
    elif saturated:
        k = max(lowest, r + rows)
    else:
        k = draw(st.integers(lowest, length))
    palette = draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=3))
    head = draw(st.lists(st.sampled_from([0] + palette), min_size=k, max_size=k))
    if saturated:
        # zeros and then a one: column j has its first nonzero at row
        # rows-1-j, so columns 0..r are independent
        head[:rows] = [0] * (rows - 1) + [1]
    return spec, m, n, r, head


@pytest.mark.parametrize("name", list(CLASSES))
def test_walk_matches_flat_sweep(name):
    @PROPS
    @given(walk_cases(name))
    def check(case):
        spec, m, n, r, head = case
        free = m + n + 1 - len(head)
        # the rank-bound view with limit r, and the census view
        for shape, limit in ((_reduced_shape(m, n, r), r), ((m, n), min(m, n) + 1)):
            expected = flat_tallies(spec, head, free, shape, limit)
            assert _tally_ranks(spec, head, free, shape, limit, 10**9) == expected
            assert _walk_block(spec, head, free, shape, limit) == expected

    check()


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_walk_matches_flat_sweep_on_the_last_entries(q):
    # the node of the entry before the last settles a free last entry for
    # each of its values; heads that fix every entry but the last two, all
    # but the last one, or every one reach that node with 2, 1 and 0 free
    # entries.  Entries from {0, 1, q-1} make dependent columns common;
    # past 100 such heads, the zero head and 100 drawn ones are walked
    spec = FieldSpec.from_order(q) if q in BUILTIN_ORDERS else FieldSpec(q)
    palette = sorted({0, 1, q - 1})
    rng = random.Random(q)
    for m, n in ((0, 0), (0, 2), (1, 1), (1, 2), (2, 2), (1, 4), (2, 3), (3, 3)):
        length = m + n + 1
        views = [((m, n), min(m, n) + 1)]
        views += [(_reduced_shape(m, n, r), r) for r in range(min(m, n) + 1)]
        for free in (2, 1, 0):
            k = length - free
            if k < 0:
                continue
            heads = list(itertools.product(palette, repeat=k))
            if len(heads) > 100:
                heads = heads[:1] + rng.sample(heads, 100)
            for head in heads:
                for shape, limit in views:
                    expected = flat_tallies(spec, head, free, shape, limit)
                    assert _walk_block(spec, head, free, shape, limit) == expected


@pytest.mark.parametrize("p, d", CLASSES["table"])
def test_orbit_blocks_match_one_unsplit_walk(p, d):
    # past the flat sweep's reach: two free entries under a zero head run
    # the (1, 0) block, weighted q(q-1), or where p divides s+1 the (1, 0)
    # and (1, 1) blocks, and the (0, 1) block; their weighted sum must
    # equal the walk of the whole completion set as one block
    spec = first_irreducible(p, d)
    for m, n in ((1, 2), (2, 2), (2, 3)):
        head = [0] * (m + n - 1)
        views = [((m, n), min(m, n) + 1)]
        views += [(_reduced_shape(m, n, r), r) for r in range(min(m, n) + 1)]
        for shape, limit in views:
            whole = _walk_block(spec, head, 2, shape, limit)
            assert _tally_ranks(spec, head, 2, shape, limit, 10**9) == whole
            assert sum(whole) == spec.order**2


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 25, 27))
def test_borel_blocks_match_one_unsplit_walk(q):
    # three free entries or more under a zero head: the (1, 0) block is
    # split by the square class of x_{s+2}, and it absorbs the (1, 1)
    # block unless p divides s+1.  Both cases must be reached
    spec = FieldSpec.from_order(q)
    reached = set()
    for free in (3, 4) if q <= 9 else (3,):
        for m, n in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)):
            k = m + n + 1 - free
            if k < 0:
                continue
            reached |= {(s + 1) % spec.p == 0 for s in range(k, k + free - 1)}
            views = [((m, n), min(m, n) + 1)]
            views += [(_reduced_shape(m, n, r), r) for r in range(min(m, n) + 1)]
            for shape, limit in views:
                whole = _walk_block(spec, [0] * k, free, shape, limit)
                assert _tally_ranks(spec, [0] * k, free, shape, limit, 10**9) == whole
    assert reached == {False, True}


@pytest.mark.parametrize("name", list(CLASSES))
def test_walk_blocks_cover_every_completion_once(name):
    # the blocks need only the field, so every field of the class is
    # checked, past the flat sweep's reach.  Block counts are left free
    specs = [FieldSpec(q) for q in (2, 3, 101, 2**16 + 1, 2**17 - 1)] if name == "prime" else [
        first_irreducible(p, d) for p, d in CLASSES[name]
    ]
    for spec in specs:
        q = spec.order
        for head in ([], [0, 0], [0, q - 1]):
            for free in range(9):
                blocks, weights = _walk_blocks(spec, head, free)
                assert len(blocks) == len(weights)
                assert all(len(block) <= free for block in blocks)
                size = [q ** (free - i) for i in range(free + 1)]
                assert sum(w * size[len(b)] for b, w in zip(blocks, weights)) == q**free
