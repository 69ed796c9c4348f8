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
of the random ones, and its blocks, at every field size, to cover each
completion once; the sampler's lockstep elimination is checked against one
kernel call per view.  Both sides of the kernel-counting identity, and the
adjacent rank pair, are checked against eliminations on materialized
views.  Runs are derandomized, so every run draws the
same examples.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hankelcensus.census import _tally_ranks, _test_shape, _walk_blocks
from hankelcensus.gf import (
    _TABLE_LIMIT,
    BUILTIN_ORDERS,
    FieldSpec,
    _is_irreducible,
    _is_prime,
)
from hankelcensus.hankel import (
    DenseMatrix,
    HankelShape,
    SeqTuple,
    _code_op_step,
    _hankel_code_rows,
    _lockstep_kernel,
    _pivot_loop,
    _rank_codes,
    _rank_kernel,
    _sub_mul_kernel,
    det,
    materialize_hankel,
    rank_gauss,
)
from hankelcensus.ranklaw import RankPair, elkies_identity_sides, kernel_count_nonzero, rank_pair

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
    start = draw(st.integers(0, p**d - 1))
    # the first irreducible monic modulus at or after a random one
    for step in itertools.count():
        low = start + step
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
    polynomial multiplication and reduction (_mul_code_raw)."""
    p = spec.p
    raw_mul = spec._mul_code_raw if spec.d > 1 else (lambda x, y: x * y % p)
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
    @given(matrices(name, square=True))
    def check(M):
        assert det(M) == oracles.leibniz_det(M)

    check()


@pytest.mark.parametrize("name", list(CLASSES))
def test_kernel_limit_reports_excess(name):
    @PROPS
    @given(matrices(name), st.integers(0, 4))
    def check(M, limit):
        rank = oracles.minor_rank(M)
        expected = rank if rank <= limit else limit + 1
        assert _rank_kernel(M.field)(M.code_rows(), limit) == expected
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
            assert _rank_kernel(spec)(M.code_rows(), limit) == 0
            assert _rank_codes(spec, M.code_rows(), limit) == 0
        M = DenseMatrix(spec, 0, 0, ())
        assert det(M) == oracles.leibniz_det(M) == spec.one

    check()


@pytest.mark.parametrize("name", WITH_TABLES)
def test_log_kernel_matches_generic_elimination(name):
    # larger shapes than the minor oracle can afford; the table step and the
    # code-operation step both subtract (f/a)*prow, so the rows agree as well
    @PROPS
    @given(matrices(name, max_dim=7))
    def check(M):
        limit = min(M.rows, M.cols)
        expected_rows, rows = M.code_rows(), M.code_rows()
        expected = _pivot_loop(_code_op_step(M.field), expected_rows, limit)
        assert _rank_kernel(M.field)(rows, limit) == expected
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
        assert _sub_mul_kernel(spec)(v, f, b) == [
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
    """(x, m, n) with m <= n+1, where x has random entries or follows a
    linear recurrence of order 1 to 3.  Over a large field a random x
    almost always has full-rank views, and both identity sides are 0."""
    spec = draw(fields(name))
    n = draw(st.integers(0, 3))
    m = draw(st.integers(0, n + 1))
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
    # the code-row term of ranklaw against rank_gauss and
    # kernel_count_nonzero on materialized views
    @PROPS
    @given(identity_cases(name))
    def check(case):
        x, m, n = case
        q = x.field.order
        full = materialize_hankel(x, HankelShape(m, n))
        shaved = materialize_hankel(x, HankelShape(m - 1, n + 1))
        lhs, rhs = elkies_identity_sides(x, m, n)
        assert lhs == (q - 1) * (rank_gauss(full) <= m)
        assert rhs == kernel_count_nonzero(full) - q * kernel_count_nonzero(shaved)
        assert lhs == rhs
        assert rank_pair(x, m, n + 1) == RankPair(rank_gauss(full), rank_gauss(shaved))

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


def one_call_per_view(spec, batch, rdeg, cdeg, limit):
    kern = _rank_kernel(spec)
    return sum(kern(_hankel_code_rows(x, rdeg, cdeg), limit) <= limit for x in batch)


@pytest.mark.parametrize("name", list(CLASSES))
def test_lockstep_matches_one_kernel_call_per_view(name):
    @PROPS
    @given(lockstep_cases(name))
    def check(case):
        spec, batch, rdeg, cdeg, limit = case
        count = _lockstep_kernel(spec)
        assert count(batch, rdeg, cdeg, limit) == one_call_per_view(spec, batch, rdeg, cdeg, limit)
        # lane by lane too, so that errors cannot cancel in the sum
        for x in batch:
            assert count([x], rdeg, cdeg, limit) == one_call_per_view(spec, [x], rdeg, cdeg, limit)

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
        count = _lockstep_kernel(spec)
        for limit in (0, 1, 2, 3):
            assert count(batch, 2, 2, limit) == one_call_per_view(spec, batch, 2, 2, limit)
            for x in batch:  # batches of one
                assert count([x], 2, 2, limit) == one_call_per_view(spec, [x], 2, 2, limit)

    check()


def flat_tallies(spec, head, free, shape, limit):
    """The per-tuple sweep the walk replaced: one kernel call per completion."""
    nrows, ncols = shape[0] + 1, shape[1] + 1
    limit = min(limit, nrows, ncols)
    kern = _rank_kernel(spec)
    tallies = [0] * (limit + 2)
    for rest in itertools.product(range(spec.order), repeat=free):
        x = list(head) + list(rest)
        tallies[kern([x[i : i + ncols] for i in range(nrows)], limit)] += 1
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
    rows = min(_test_shape(m, n, r)) + 1  # column length of the walked view
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
        for shape, limit in ((_test_shape(m, n, r), r), ((m, n), min(m, n) + 1)):
            expected = flat_tallies(spec, head, free, shape, limit)
            assert _tally_ranks(spec, head, free, shape, limit, 10**9) == expected

    check()


@pytest.mark.parametrize("name", list(CLASSES))
def test_walk_blocks_cover_every_completion_once(name):
    # the blocks need only q, so every order of the class is checked, past
    # the flat sweep's reach; a nonzero head gets q blocks, so the primes
    # stay near the other classes' orders.  Block counts are left free
    orders = (2, 3, 101, 2**16 + 1, 2**17 - 1) if name == "prime" else [
        p**d for p, d in CLASSES[name]
    ]
    for q in orders:
        for head in ([], [0, 0], [0, q - 1]):
            for free in range(9):
                blocks, weights = _walk_blocks(q, head, free)
                assert len(blocks) == len(weights)
                assert all(len(block) <= free for block in blocks)
                size = [q ** (free - i) for i in range(free + 1)]
                assert sum(w * size[len(b)] for b, w in zip(blocks, weights)) == q**free
