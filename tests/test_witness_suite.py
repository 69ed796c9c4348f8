"""The witness suite's sweeps against the per-prefix sweep they replaced.

`census.suite_witnesses` flags every tuple once per gadget vector and
view, and checks each weakly or strongly nice tuple once, in the context
of its own (n+1)-prefix: a check reaches its prefix only through the
predicates' prefix tests, so a pass at the longest prefix is a pass at
every shorter one.  A tuple that fails there is checked again at every
prefix length.  The oracle below is the earlier form of that sweep: for
every (v, prefix) it reads the prefix's nice tuples off the flags, runs
each check, and tests the closure of the freed entry on every mutated
tuple.  Both must give the same reports, timing aside, with the gadgets
as they are and under each injected fault.  The oracle looks its gadgets
and flags up in the `census` module, so one monkeypatch reaches both.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

import oracles
from hankelcensus import census
from hankelcensus.census import CapExceededError, make_report, suite_witnesses
from hankelcensus.gf import FieldSpec
from hankelcensus.hankel import RowVector, SeqTuple, iter_seq_tuples
from hankelcensus.witness import (
    NiceContext,
    _annihilates_codes,
    _annihilation_flags,
    alpha,
    beta,
    is_strongly_nice,
    is_weakly_nice,
)

FREE_ENTRY_CHECKS = ("free-entry-bijection", "weak-strong-count-ratio", "free-entry-closure")


def code_index(q, codes):
    index = 0
    for c in codes:
        index = index * q + c
    return index


def per_prefix_free_entry_reports(field, m_hi, n_hi):
    """The free-entry reports from one sweep of every check per (v, prefix)."""
    q = field.order
    elements = field.elements()
    bad = dict.fromkeys(FREE_ENTRY_CHECKS, 0)
    instances = dict.fromkeys(FREE_ENTRY_CHECKS, 0)
    firsts = {}

    def flag(name, where):
        bad[name] += 1
        firsts.setdefault(name, where)

    def weak_ok(x, ctx):
        try:
            y, s = census.beta(x, ctx)
            return census.is_strongly_nice(s, ctx) and census.alpha(y, s, ctx) == x
        except ValueError:
            return False

    def strong_ok(s, y, ctx):
        try:
            x2 = census.alpha(y, s, ctx)
            return census.is_weakly_nice(x2, ctx) and census.beta(x2, ctx) == (y, s)
        except ValueError:
            return False

    for m in range(1, m_hi + 1):
        for n in range(n_hi + 1):
            length = m + n + 1
            for vtail in itertools.product(range(q), repeat=m):
                if not any(vtail):
                    continue
                v = RowVector.from_codes(field, vtail + (0,))
                weak_flags = census._annihilation_flags(field, v.codes, n + 1, length)
                strong_flags = census._annihilation_flags(field, vtail, n + 2, length)
                for k in range(n + 2):
                    for a in iter_seq_tuples(field, k):
                        ctx = NiceContext(field, m, n, v, a)
                        where = f"v={v.codes} a={a.codes} m={m} n={n}"
                        weak = []
                        strong = []
                        for x in iter_seq_tuples(field, length, a):
                            if weak_flags[code_index(q, x.codes)]:
                                weak.append(x)
                            if strong_flags[code_index(q, x.codes)]:
                                strong.append(x)
                        instances["weak-strong-count-ratio"] += 1
                        if len(weak) != q * len(strong):
                            flag("weak-strong-count-ratio", where)
                        pos = ctx.j + ctx.n + 1
                        for x in weak:
                            instances["free-entry-bijection"] += 1
                            if not weak_ok(x, ctx):
                                flag("free-entry-bijection", f"{where} x={x.codes}")
                            for c in range(q):
                                mutated = x.codes[:pos] + (c,) + x.codes[pos + 1 :]
                                instances["free-entry-closure"] += 1
                                if not weak_flags[code_index(q, mutated)]:
                                    flag("free-entry-closure", f"{where} x={x.codes}")
                        for s in strong:
                            for y in elements:
                                instances["free-entry-bijection"] += 1
                                if not strong_ok(s, y, ctx):
                                    flag("free-entry-bijection", f"{where} x={s.codes}")
    reports = []
    for name in FREE_ENTRY_CHECKS:
        params = {"max_m": m_hi, "max_n": n_hi, "instances": instances[name], "unit": "violations"}
        if name in firsts:
            params["first_violation"] = firsts[name]
        reports.append(make_report(name, field, params, formula=0, observed=bad[name]))
    return reports


def untimed(reports):
    return [dataclasses.replace(r, elapsed_s=0.0) for r in reports]


def free_entry_reports(field, max_n):
    reports = suite_witnesses(field, max_n)
    return untimed([r for r in reports if r.check in FREE_ENTRY_CHECKS])


@pytest.mark.parametrize(
    "order, max_n", [(2, 3), (3, 2), (4, 2), (9, 1)], ids=["GF2", "GF3", "GF4", "GF9"]
)
def test_free_entry_sweep_matches_per_prefix_oracle(order, max_n):
    field = FieldSpec.from_order(order)
    reports = suite_witnesses(field, max_n)
    got = [r for r in reports if r.check in FREE_ENTRY_CHECKS]
    m_hi, n_hi = min(3, max_n), min(2, max_n)
    assert untimed(got) == untimed(per_prefix_free_entry_reports(field, m_hi, n_hi))
    assert all(r.verdict == "match" for r in reports)


@pytest.mark.parametrize(
    "order, max_n", [(2, 3), (3, 2), (4, 2), (9, 1)], ids=["GF2", "GF3", "GF4", "GF9"]
)
def test_suite_flags_match_the_predicates(order, max_n):
    # the oracle reads the same flags as the suite; here they meet the
    # public predicates on every tuple, vector and view of the grid
    field = FieldSpec.from_order(order)
    q = field.order
    for m in range(1, min(3, max_n) + 1):
        for n in range(min(2, max_n) + 1):
            length = m + n + 1
            for vtail in itertools.product(range(q), repeat=m):
                if not any(vtail):
                    continue
                v = RowVector.from_codes(field, vtail + (0,))
                ctx = NiceContext(field, m, n, v, SeqTuple(field, ()))
                weak = _annihilation_flags(field, v.codes, n + 1, length)
                strong = _annihilation_flags(field, vtail, n + 2, length)
                for i, x in enumerate(iter_seq_tuples(field, length)):
                    assert weak[i] == is_weakly_nice(x, ctx)
                    assert strong[i] == is_strongly_nice(x, ctx)


def _shifted(spec, element):
    return spec.element((element.code + 1) % spec.order)


def _beta_misreads_x0(x, ctx):
    # tests x against the prefix with x_0 rewritten, so it refuses every
    # tuple once the prefix pins x_0: each check fails at every k >= 1 and
    # passes at k = 0, n+1 misses per weak tuple, not n+2
    if ctx.k:
        a = ctx.a.entries
        ctx = dataclasses.replace(
            ctx, a=SeqTuple(ctx.field, (_shifted(ctx.field, a[0]),) + a[1:])
        )
    return beta(x, ctx)


def _beta_rewrites_x0(x, ctx):
    # hands back z with x_0 rewritten, which no round trip survives
    y, s = beta(x, ctx)
    return y, SeqTuple(ctx.field, (_shifted(ctx.field, s.entries[0]),) + s.entries[1:])


def _beta_wrong_y(x, ctx):
    y, s = beta(x, ctx)
    return _shifted(ctx.field, y), s


def _alpha_one_off(y, x, ctx):
    # writes y one position early; refuses what alpha refuses
    alpha(y, x, ctx)
    pos = ctx.j + ctx.n
    return SeqTuple(ctx.field, x.entries[:pos] + (y,) + x.entries[pos + 1 :])


def _drop_last_nice_tuple(spec, vcodes, ncols, length):
    # the last nice tuple's q-1 neighbours through the freed entry lose
    # their closure, and its prefixes their count ratio
    flags = _annihilation_flags(spec, vcodes, ncols, length)
    flags[max(i for i, f in enumerate(flags) if f)] = False
    return flags


def _refuses_nonzero_last_entry(x, ctx):
    return x.codes[-1] == 0 and is_weakly_nice(x, ctx)


@pytest.mark.parametrize(
    "faults",
    [
        {"beta": _beta_misreads_x0},
        {"beta": _beta_rewrites_x0},
        {"beta": _beta_wrong_y},
        {"alpha": _alpha_one_off},
        {"_annihilation_flags": _drop_last_nice_tuple},
        # strong-side misses at k = 0 come before the weak side's at k = 1
        {"beta": _beta_misreads_x0, "is_weakly_nice": _refuses_nonzero_last_entry},
    ],
    ids=["beta-misreads-x0", "beta-rewrites-x0", "beta-wrong-y", "alpha-one-off", "flags", "mixed"],
)
@pytest.mark.parametrize("order, max_n", [(3, 2), (4, 1)], ids=["GF3", "GF4"])
def test_faults_match_the_per_prefix_oracle(monkeypatch, faults, order, max_n):
    field = FieldSpec.from_order(order)
    for name, fault in faults.items():
        monkeypatch.setattr(census, name, fault)
    got = free_entry_reports(field, max_n)
    assert untimed(per_prefix_free_entry_reports(field, min(3, max_n), min(2, max_n))) == got
    assert any(r.verdict == "mismatch" for r in got)
    assert all("first_violation" in r.params for r in got if r.verdict == "mismatch")


def test_a_fault_past_k_0_counts_one_miss_per_failing_prefix_length(monkeypatch):
    # GF(2), m = 1: v = (1, 0) alone.  At n = 0 the weak tuples are (0, *)
    # and the strong one (0, 0); at n = 1 they are (0, 0, *) and (0, 0, 0).
    # So 2 + 2*1 checks per n, each standing for n+2 instances and failing
    # at the n+1 prefix lengths k >= 1
    monkeypatch.setattr(census, "beta", _beta_misreads_x0)
    (bij,) = [r for r in suite_witnesses(FieldSpec(2), 1) if r.check == "free-entry-bijection"]
    assert bij.params["instances"] == 4 * 2 + 4 * 3
    assert bij.observed_value == 4 * 1 + 4 * 2
    assert bij.params["first_violation"] == "v=(1, 0) a=(0,) m=1 n=0 x=(0, 0)"


def assert_flags_match_the_predicate(field, vcodes, ncols, length):
    # the flags, and the predicate the successor windows are built on,
    # against column sums in FieldElement arithmetic
    flags = _annihilation_flags(field, vcodes, ncols, length)
    tuples = list(itertools.product(range(field.order), repeat=length))
    v = RowVector.from_codes(field, vcodes)
    expected = [oracles.annihilates(v, SeqTuple.from_codes(field, x), ncols) for x in tuples]
    assert flags == expected
    assert [_annihilates_codes(field, vcodes, x, ncols) for x in tuples] == expected
    return flags


@pytest.mark.parametrize("order", [2, 3, 4, 5, 8, 9, 13])
def test_annihilation_flags_match_the_predicate(order):
    field = FieldSpec.from_order(order)
    q = field.order
    rng = random.Random(order)
    for _ in range(6):
        width = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        length = width + ncols - 1
        while q**length > 3000:
            ncols -= 1
            length -= 1
        vcodes = tuple(rng.choice((0, rng.randrange(q))) for _ in range(width))
        assert_flags_match_the_predicate(field, vcodes, ncols, length)
        # entries past the last column are free
        if q ** (length + 1) <= 3000:
            assert_flags_match_the_predicate(field, vcodes, ncols, length + 1)
    # the zero vector annihilates every tuple; leading zeros shift the windows
    for vcodes in ((0,), (0, 0), (0, 0, 1), (0, q - 1, 1)):
        ncols = 2 if q**4 <= 3000 else 1
        length = len(vcodes) + ncols - 1
        flags = assert_flags_match_the_predicate(field, vcodes, ncols, length)
        assert all(flags) == (not any(vcodes))
    if order == 9:
        # the same codes name other elements under another modulus, so the
        # zero windows must be cached per field, not per code tuple
        other = FieldSpec(3, 2, (2, 1, 1))
        assert other != field
        vcodes = (3, 1)
        flags = assert_flags_match_the_predicate(field, vcodes, 2, 3)
        assert assert_flags_match_the_predicate(other, vcodes, 2, 3) != flags


def _ignore_last_column(spec, vcodes, ncols, length):
    # claims tuples whose last column is not annihilated
    return _annihilation_flags(spec, vcodes, ncols - 1, length)


def _miss_zero_tuple(spec, vcodes, ncols, length):
    # every v annihilates the zero tuple, which comes first
    flags = _annihilation_flags(spec, vcodes, ncols, length)
    flags[0] = False
    return flags


@pytest.mark.parametrize(
    "fault, caught_by",
    [
        (_ignore_last_column, ("tail-solver-annihilation", "free-entry-bijection")),
        (
            _miss_zero_tuple,
            ("tail-solver-annihilation", "tail-solver-count", "weak-strong-count-ratio"),
        ),
    ],
)
def test_faulty_annihilation_predicate_is_reported(monkeypatch, fault, caught_by):
    monkeypatch.setattr(census, "_annihilation_flags", fault)
    reports = suite_witnesses(FieldSpec(3), 1)
    assert any(r.verdict == "mismatch" for r in reports)
    by_name = {r.check: r for r in reports}
    for name in caught_by:
        assert by_name[name].verdict == "mismatch"
        assert by_name[name].observed_value > 0
        assert "first_violation" in by_name[name].params


def test_cap_charges_the_annihilation_sweeps(monkeypatch):
    field = FieldSpec(3)
    tested = []

    def counting(spec, vcodes, ncols, length):
        tested.append(spec.order**length)
        return _annihilation_flags(spec, vcodes, ncols, length)

    monkeypatch.setattr(census, "_annihilation_flags", counting)
    suite_witnesses(field, 2)
    work = sum(tested)
    with pytest.raises(CapExceededError) as err:
        suite_witnesses(field, 2, cap=work - 1)
    assert err.value.required == work
    assert all(r.verdict != "mismatch" for r in suite_witnesses(field, 2, cap=work))
