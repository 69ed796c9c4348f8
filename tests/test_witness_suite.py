"""The witness suite's sweeps against the per-prefix sweep they replaced.

`census.suite_witnesses` flags every tuple once per gadget vector and view
and reads each prefix's nice tuples off a block of those flags.  The
oracle below is the earlier form of that sweep: for every prefix it
builds each completion and asks the public `is_weakly_nice` and
`is_strongly_nice` predicates.  Both must give the same reports, timing
aside.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from hankelcensus import census
from hankelcensus.census import CapExceededError, all_passed, make_report, suite_witnesses
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


def per_prefix_free_entry_reports(field, m_hi, n_hi):
    """The free-entry reports from one predicate sweep per (v, prefix)."""
    q = field.order
    elements = field.elements()
    bad = dict.fromkeys(FREE_ENTRY_CHECKS, 0)
    instances = dict.fromkeys(FREE_ENTRY_CHECKS, 0)
    firsts = {}

    def flag(name, where):
        bad[name] += 1
        firsts.setdefault(name, where)

    for m in range(1, m_hi + 1):
        for n in range(n_hi + 1):
            length = m + n + 1
            for vtail in itertools.product(range(q), repeat=m):
                if not any(vtail):
                    continue
                v = RowVector.from_codes(field, vtail + (0,))
                for k in range(n + 2):
                    for a in iter_seq_tuples(field, k):
                        ctx = NiceContext(field, m, n, v, a)
                        where = f"v={v.codes} a={a.codes} m={m} n={n}"
                        weak = []
                        strong = []
                        for x in iter_seq_tuples(field, length, a):
                            if is_weakly_nice(x, ctx):
                                weak.append(x)
                            if is_strongly_nice(x, ctx):
                                strong.append(x)
                        instances["weak-strong-count-ratio"] += 1
                        if len(weak) != q * len(strong):
                            flag("weak-strong-count-ratio", where)
                        pos = ctx.j + ctx.n + 1
                        for x in weak:
                            y, s = beta(x, ctx)
                            instances["free-entry-bijection"] += 1
                            if not is_strongly_nice(s, ctx) or alpha(y, s, ctx) != x:
                                flag("free-entry-bijection", f"{where} x={x.codes}")
                            for y2 in elements:
                                mutated = SeqTuple(
                                    field, x.entries[:pos] + (y2,) + x.entries[pos + 1 :]
                                )
                                instances["free-entry-closure"] += 1
                                if not is_weakly_nice(mutated, ctx):
                                    flag("free-entry-closure", f"{where} x={x.codes}")
                        for s in strong:
                            for y in elements:
                                x2 = alpha(y, s, ctx)
                                instances["free-entry-bijection"] += 1
                                if not is_weakly_nice(x2, ctx) or beta(x2, ctx) != (y, s):
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
        flags = _annihilation_flags(field, vcodes, ncols, length)
        tuples = list(itertools.product(range(q), repeat=length))
        assert flags == [_annihilates_codes(field, vcodes, x, ncols) for x in tuples]


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
        (_miss_zero_tuple, ("tail-solver-annihilation", "weak-strong-count-ratio")),
    ],
)
def test_faulty_annihilation_predicate_is_reported(monkeypatch, fault, caught_by):
    monkeypatch.setattr(census, "_annihilation_flags", fault)
    reports = suite_witnesses(FieldSpec(3), 1)
    assert not all_passed(reports)
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
    assert all_passed(suite_witnesses(field, 2, cap=work))
