"""Counting formulas, the enumeration engine, Monte Carlo, and reports."""

from __future__ import annotations

import gc
from fractions import Fraction

import pytest

import oracles
from hankelcensus import census, ranklaw
from hankelcensus.census import (
    CapExceededError,
    CountQuery,
    MonteCarloEstimate,
    brute_census,
    brute_count_jt_singular,
    brute_count_rank_le,
    count_det_zero_formula,
    count_jt_singular_formula,
    count_rank_eq_formula,
    count_rank_le_formula,
    make_report,
    monte_carlo_rank_le,
    rank_le_probability,
    suite_lemmas,
    target_stderr,
    verify,
)
from hankelcensus.census import _GOLDEN, _draw_codes, _mix64, _test_shape
from hankelcensus.gf import FieldSpec, parse_field
from hankelcensus.hankel import (
    HankelShape,
    RowVector,
    SeqTuple,
    _hankel_code_rows,
    _lockstep_rank_le,
    _rank_codes,
    det,
    iter_seq_tuples,
    materialize_hankel,
    rank_gauss,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def seq(field, codes):
    return SeqTuple.from_codes(field, codes)


# -- query regimes ------------------------------------------------------


def test_query_regimes():
    assert CountQuery(F2, 2, 3, 1).regime == "standard"
    assert CountQuery(F3, 2, 1, 2, seq(F3, [1])).regime == "full-width"
    assert CountQuery(F2, 2, 3, 1, seq(F2, [1, 1])).regime == "none"  # k > r
    assert CountQuery(F2, 1, 1, 2).regime == "none"  # r > m, not full-width
    with pytest.raises(ValueError):
        CountQuery(F2, 1, 1, 1, seq(F2, [0, 0, 0, 0]))  # prefix too long
    with pytest.raises(ValueError):
        CountQuery(F2, 1, 1, 1, seq(F3, [0]))


# -- closed forms -------------------------------------------------------


def test_count_rank_le_formula_values():
    assert count_rank_le_formula(CountQuery(F2, 2, 3, 1)) == 4
    assert count_rank_le_formula(CountQuery(F3, 3, 3, 2, seq(F3, [1, 2]))) == 9
    assert count_rank_le_formula(CountQuery(F3, 2, 1, 2, seq(F3, [1]))) == 27
    with pytest.raises(ValueError):
        count_rank_le_formula(CountQuery(F2, 1, 1, 2))


def test_count_rank_eq_formula_values():
    assert count_rank_eq_formula(F2, 1, 1, 0) == 1
    assert count_rank_eq_formula(F2, 1, 1, 1) == 3
    assert count_rank_eq_formula(F2, 1, 1, 2) == 4
    assert count_rank_eq_formula(F2, 1, 1, 5) == 0
    assert count_rank_eq_formula(F3, 1, 3, 2) == 9 * (27 - 1)
    with pytest.raises(ValueError):
        count_rank_eq_formula(F2, 2, 1, 1)


def test_count_det_zero_formula_values():
    assert count_det_zero_formula(F2, 1, 0) == 4
    assert count_det_zero_formula(F3, 2, 2) == 9
    assert count_det_zero_formula(F3, 3, 3) == 27
    with pytest.raises(ValueError):
        count_det_zero_formula(F3, 1, 2)


def test_count_jt_singular_formula_values():
    assert count_jt_singular_formula(F2, 2, 5) == 32
    assert count_jt_singular_formula(F3, 2, 5) == 3**5
    assert count_jt_singular_formula(F3, 1, 1) == 1
    assert count_jt_singular_formula(F2, 2, 2) == 4
    with pytest.raises(ValueError):
        count_jt_singular_formula(F2, 0, 3)


def test_rank_le_probability():
    assert rank_le_probability(CountQuery(FieldSpec(101), 4, 4, 4)) == Fraction(1, 101)
    assert rank_le_probability(CountQuery(F2, 2, 1, 2)) == 1
    with pytest.raises(ValueError):
        rank_le_probability(CountQuery(F2, 1, 1, 2))


# -- brute counters ------------------------------------------------------


def test_brute_count_examples():
    assert brute_count_rank_le(CountQuery(F2, 2, 3, 1)) == 4
    assert brute_count_rank_le(CountQuery(F2, 2, 3, 1, seq(F2, [1]))) == 2
    assert brute_count_rank_le(CountQuery(F2, 1, 1, 1)) == 4


def test_brute_count_matches_census_partial_sums():
    for field in (F2, F3):
        for m, n in ((1, 1), (1, 2), (2, 2)):
            dist = brute_census(field, m, n)
            for r in range(min(m, n) + 2):
                query = CountQuery(field, m, n, r)
                assert brute_count_rank_le(query) == sum(c for rho, c in dist.counts.items() if rho <= r)


def test_brute_count_out_of_formula_regime():
    # r < k and r > min(m,n) are still countable, just formula-free
    query = CountQuery(F2, 2, 3, 1, seq(F2, [1, 1]))
    assert query.regime == "none"
    brute = brute_count_rank_le(query)
    expected = sum(
        1
        for x in iter_seq_tuples(F2, 6, seq(F2, [1, 1]))
        if brute_count_rank_le(CountQuery(F2, 2, 3, 1, x)) == 1
    )
    assert brute == expected
    full = CountQuery(F2, 1, 1, 2)
    assert brute_count_rank_le(full) == 8  # rank never exceeds min+1


def test_partition_by_first_free_entry():
    # slicing the suffix space on the first free entry reproduces the total
    base = CountQuery(F3, 2, 2, 1, seq(F3, [2]))
    total = brute_count_rank_le(base)
    sliced = sum(
        brute_count_rank_le(CountQuery(F3, 2, 2, 1, seq(F3, [2, c])))
        for c in range(3)
    )
    assert total == sliced


def test_nonzero_head_with_one_free_entry_walks_one_block():
    # the walk settles the last entry in closed form, so such a head needs
    # one block, not one per value of that entry: above 2^16 each of q
    # blocks pays for a polynomial inverse, minutes of work in all
    field = FieldSpec(2, 17, [1, 0, 0, 1] + [0] * 13 + [1])
    t = field.element([0, 1])
    dist = brute_census(field, 0, 1, SeqTuple(field, (t,)))
    assert dist.sorted_items() == [(0, 0), (1, 2**17)]
    dist = brute_census(field, 1, 1, SeqTuple(field, (t, field.one)))
    assert dist.sorted_items() == [(0, 0), (1, 1), (2, 2**17 - 1)]


def test_brute_census_values():
    dist = brute_census(F2, 1, 1)
    assert dist.sorted_items() == [(0, 1), (1, 3), (2, 4)]
    assert dist.total == 8
    dist = brute_census(F2, 1, 1, seq(F2, [0]))
    assert dist.total == 4
    assert max(dist.counts) == 2  # no tallies beyond min(m,n)+1


def test_brute_census_against_formula_grid():
    for field in (F2, F3):
        for n in range(3):
            for m in range(n + 1):
                dist = brute_census(field, m, n)
                for r in range(m + 2):
                    assert dist.counts[r] == count_rank_eq_formula(field, m, n, r)


@pytest.mark.parametrize(
    "text, m, n",
    [
        ("65521", 2, 2),
        ("2^17:1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1", 2, 2),
        ("3^11:2,0,1,0,0,0,0,0,0,0,0,1", 2, 2),
        ("2147483647", 1, 2),
        ("101", 3, 3),
    ],
)
def test_exact_census_on_large_fields(text, m, n):
    # far past the flat sweep: the orbit blocks, the kernel update and the
    # last-entry settle on large-prime and polynomial arithmetic.  For
    # m <= n the census is written out here: 1 tuple of rank 0,
    # (q^2-1)*q^(2r-2) of each rank 1 <= r <= m, and the rest of rank m+1
    field = parse_field(text)
    q = field.order
    dist = brute_census(field, m, n, cap=q ** (m + n + 1))
    expected = {r: (q * q - 1) * q ** (2 * r - 2) for r in range(1, m + 1)}
    expected |= {0: 1, m + 1: q ** (m + n + 1) - q ** (2 * m)}
    assert dist.counts == expected


def test_cap_errors():
    with pytest.raises(CapExceededError) as info:
        brute_count_rank_le(CountQuery(F2, 20, 20, 20), cap=1000)
    assert info.value.required == 2**41
    with pytest.raises(CapExceededError):
        brute_census(F2, 20, 20, cap=1000)
    for path in ("flip", "direct"):
        with pytest.raises(CapExceededError) as info:
            brute_count_jt_singular(F2, 20, 21, cap=1000, path=path)
        assert info.value.required == 2**40


def test_jt_paths_agree():
    # u + v <= 5 over the primes, u + v <= 4 over GF(4) and GF(9)
    grid = [(F2, 4), (F3, 4)] + [(FieldSpec.from_order(q), 3) for q in (4, 9)]
    for field, most in grid:
        for total in range(1, most + 1):
            for u in range(1, total + 1):
                v = total + 1 - u
                flip = brute_count_jt_singular(field, u, v, path="flip")
                direct = brute_count_jt_singular(field, u, v, path="direct")
                assert flip == direct == count_jt_singular_formula(field, u, v)
    # a field with log tables: one shape, where the direct path is cheap
    table = FieldSpec(2, 11, [1, 0, 1] + [0] * 8 + [1])
    flip = brute_count_jt_singular(table, 1, 1, path="flip")
    assert flip == brute_count_jt_singular(table, 1, 1, path="direct") == 1
    # above 2^16 the direct path takes seconds per shape; u >= v covers the
    # factor Q^(u-v) for the entries the flip leaves unused
    big = FieldSpec(2, 17, [1, 0, 0, 1] + [0] * 13 + [1])
    for u, v in ((1, 1), (2, 1), (3, 1)):
        flip = brute_count_jt_singular(big, u, v, cap=big.order ** (u + v - 1))
        assert flip == count_jt_singular_formula(big, u, v)
    with pytest.raises(ValueError):
        brute_count_jt_singular(F2, 0, 2)
    with pytest.raises(ValueError):
        brute_count_jt_singular(F2, 2, 2, path="weird")


def test_walks_and_dropped_fields_leave_no_cyclic_garbage():
    # reference counting alone frees a finished walk, and a spec with its
    # bound operations, so the cyclic collector finds nothing afterwards
    fields = ("5", "4", "9", "2^17:1,0,0,1" + ",0" * 13 + ",1", "3^11:2,0,1" + ",0" * 8 + ",1")
    gc.collect()
    gc.disable()
    try:
        brute_census(F3, 2, 2)
        brute_count_jt_singular(FieldSpec.from_order(4), 2, 3)
        assert gc.collect() == 0
        for text in fields:
            spec = parse_field(text)
            x = seq(spec, [1, 2, 3, 1, 0])
            M = materialize_hankel(x, HankelShape(2, 2))
            assert rank_gauss(M) == oracles.minor_rank(M)
            assert det(M) == oracles.leibniz_det(M)
            assert _lockstep_rank_le(spec.ops, [x.codes], 2, 2, 2) == (rank_gauss(M) <= 2)
            del spec, x, M
            assert gc.collect() == 0, text
    finally:
        gc.enable()


# -- Monte Carlo ---------------------------------------------------------


def test_mix64_matches_published_vector():
    # the first two outputs of the reference splitmix64 stream at seed 0
    from hankelcensus.census import _GOLDEN

    assert _mix64(_GOLDEN) == 0xE220A8397B1DCDAF
    assert _mix64(2 * _GOLDEN) == 0x6E789E6AA1B965F4
    assert _mix64(0) == 0


def test_draw_codes_in_range_and_covering():
    for field in (F2, F3, FieldSpec(5), FieldSpec.from_order(9)):
        codes = _draw_codes(field, key=12345, count=2000)
        assert all(0 <= c < field.order for c in codes)
        assert set(codes) == set(range(field.order))


def reference_draw(spec, key, count):
    """Rejection sampling on ceil(log2 Q) bits, word j = _mix64(key + j*golden)."""
    bits = (spec.order - 1).bit_length()
    out, j = [], 0
    while len(out) < count:
        w = 0
        for _ in range((bits + 63) // 64):
            j += 1
            w = (w << 64) | _mix64(key + j * _GOLDEN)
        if w % 2**bits < spec.order:
            out.append(w % 2**bits)
    return out


GF2_64 = FieldSpec(2, 64, [1, 1, 1] + [0] * 8 + [1] + [0] * 52 + [1])  # x^64+x^11+x^2+x+1
GF2_65 = FieldSpec(2, 65, [1] + [0] * 17 + [1] + [0] * 46 + [1])  # x^65+x^18+1
GF3_41 = FieldSpec(3, 41, [1, 2] + [0] * 39 + [1])  # x^41+2x+1, Q a little below 2^65


@pytest.mark.parametrize(
    "field",
    [F2, FieldSpec(101), FieldSpec(2**31 - 1), FieldSpec.from_order(64), GF2_64, GF2_65, GF3_41],
    ids=str,
)
def test_draw_codes_match_mix64_reference(field):
    # 2^64 - 1 wraps the counter at the first word, -golden mod 2^64 reaches
    # counter 0 there, and a key past 2^64 is read mod 2^64; above 2^64 a
    # code takes two words, and GF(3^41) rejects about 1% of them
    for key in (0, 12345, 2**64 - 1, 2**64 - _GOLDEN, 2**64 + 12345):
        assert _draw_codes(field, key, 40) == reference_draw(field, key, 40)
    assert _draw_codes(field, 12345, 40) == _draw_codes(field, 2**64 + 12345, 40)
    assert _draw_codes(field, 7, 0) == []


def test_draw_codes_above_2_64_use_two_words():
    # a code is the low 65 bits of (word 1, word 2), so it can use bit 64
    w1, w2 = _mix64(_GOLDEN), _mix64(2 * _GOLDEN)
    assert _draw_codes(GF2_65, 0, 1) == [((w1 << 64) | w2) % 2**65]
    assert any(c >> 64 for c in _draw_codes(GF2_65, 99, 64))


def reference_monte_carlo(query, trials, seed):
    """One draw and one rank kernel call per trial, as before batching."""
    rdeg, cdeg = _test_shape(query.m, query.n, query.r)
    free = query.tuple_len - query.k
    base = _mix64(seed)
    successes = 0
    for t in range(1, trials + 1):
        x = list(query.prefix.codes) + _draw_codes(query.field, _mix64(base + t * _GOLDEN), free)
        successes += _rank_codes(query.field, _hankel_code_rows(x, rdeg, cdeg), query.r) <= query.r
    return successes


@pytest.mark.parametrize(
    "query",
    [
        CountQuery(F2, 3, 3, 2),
        CountQuery(F3, 2, 4, 2, seq(F3, [0, 1])),
        CountQuery(FieldSpec(5), 3, 3, 0),
        CountQuery(FieldSpec.from_order(9), 2, 3, 2),
        CountQuery(FieldSpec.from_order(8), 3, 2, 3),  # full width
    ],
    ids=lambda q: f"GF{q.field.order}-{q.m}-{q.n}-{q.r}-k{q.k}",
)
def test_monte_carlo_batches_match_one_kernel_call_per_trial(query):
    # one trial, a whole batch, and counts that leave a short last batch
    batch = census._MC_BATCH
    for trials in (1, 2, batch, batch + 1, 2 * batch + 77):
        est = monte_carlo_rank_le(query, trials, 11)
        assert est.successes == reference_monte_carlo(query, trials, 11)
        assert est.trials == trials


def test_monte_carlo_deterministic():
    query = CountQuery(FieldSpec(101), 4, 4, 4)
    a = monte_carlo_rank_le(query, 500, 7)
    b = monte_carlo_rank_le(query, 500, 7)
    assert a == b
    c = monte_carlo_rank_le(query, 500, 8)
    assert a != c


def test_monte_carlo_full_width_regime_is_certain():
    query = CountQuery(F3, 2, 1, 2)
    est = monte_carlo_rank_le(query, 200, 1)
    assert est.estimate == 1
    assert est.stderr == 0.0


def test_monte_carlo_tracks_exact_probability():
    # P(rank <= 1) = 1/2 for the 2x2 view over GF(2)
    query = CountQuery(F2, 1, 1, 1)
    est = monte_carlo_rank_le(query, 4096, 3)
    assert abs(float(est.estimate) - 0.5) <= 4 * est.stderr
    with pytest.raises(ValueError):
        monte_carlo_rank_le(query, 0, 3)


# -- reports and verify --------------------------------------------------


def test_make_report_verdicts():
    r = make_report("demo", F2, {}, formula=4, observed=4)
    assert r.verdict == "match"
    r = make_report("demo", F2, {}, formula=4 + 1, observed=4)
    assert r.verdict == "mismatch"  # injected fault must be detected
    r = make_report("demo", F2, {}, formula=None, observed=4)
    assert r.verdict is None
    # only a MonteCarloEstimate gets a tolerance; exact fractions must be equal
    r = make_report("demo", F2, {}, formula=Fraction(1, 2), observed=Fraction(1, 2))
    assert r.verdict == "match"
    r = make_report("demo", F2, {}, formula=Fraction(1, 2), observed=Fraction(50, 99))
    assert r.verdict == "mismatch"
    est = MonteCarloEstimate(Fraction(1, 2), 0.01, 50, 100)
    r = make_report("demo", F2, {}, formula=Fraction(1, 2), observed=est)
    assert r.verdict == "estimate-within-tolerance"
    far = MonteCarloEstimate(Fraction(9, 10), 0.01, 90, 100)
    r = make_report("demo", F2, {}, formula=Fraction(1, 2), observed=far)
    assert r.verdict == "mismatch"


def test_suite_jt_times_each_path_from_its_own_start(monkeypatch):
    # on a fake clock the flip count takes 1 s and the direct count 2 s
    clock = [0.0]
    count = census.brute_count_jt_singular

    def timed_count(field, u, v, cap, *, path):
        clock[0] += 1.0 if path == "flip" else 2.0
        return count(field, u, v, cap, path=path)

    monkeypatch.setattr(census.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(census, "brute_count_jt_singular", timed_count)
    reports = verify("jt", [F2], max_n=3)
    assert len(reports) == 3 * 6
    expected = {
        "jt-singular-count-flip": 1.0,
        "jt-singular-count-direct": 2.0,
        "jt-path-agreement": 3.0,
    }
    assert [r.elapsed_s for r in reports] == [expected[r.check] for r in reports]
    assert all(r.verdict != "mismatch" for r in reports)


def test_monte_carlo_verdict_at_zero_or_all_successes():
    # the band comes from the target's variance, so p-hat in {0, 1} (and a
    # zero estimated stderr) neither fails a right answer nor passes a wrong one
    def verdict(successes, trials, target):
        est = MonteCarloEstimate(Fraction(successes, trials), 0.0, successes, trials)
        return make_report("demo", F2, {}, formula=target, observed=est).verdict

    assert verdict(0, 1000, Fraction(1, 101**7)) == "estimate-within-tolerance"
    assert verdict(1000, 1000, 1 - Fraction(1, 101**7)) == "estimate-within-tolerance"
    assert verdict(0, 10**6, Fraction(1, 101)) == "mismatch"
    assert verdict(100, 100, Fraction(1, 2)) == "mismatch"
    assert verdict(999, 1000, Fraction(1)) == "mismatch"
    query = CountQuery(FieldSpec(101), 4, 4, 1)
    est = monte_carlo_rank_le(query, 1000, 0)
    assert est.successes == 0 and est.stderr == 0.0
    report = make_report("demo", query.field, {}, formula=rank_le_probability(query), observed=est)
    assert report.verdict == "estimate-within-tolerance"
    # at the large-field criterion's operating point the band barely moves
    assert abs(target_stderr(Fraction(1, 101), 10**6) - 9.90e-5) < 1e-7


def test_verify_small_run_passes():
    reports = verify("theorems", [F2], max_n=2)
    assert reports and all(r.verdict == "match" for r in reports)


def test_verify_unknown_suite():
    with pytest.raises(ValueError):
        verify("nonsense", [F2])


def test_verify_rejects_negative_max_n():
    # a negative bound used to run every suite over zero instances
    for suite in ("theorems", "all"):
        with pytest.raises(ValueError, match="max_n"):
            verify(suite, [F3], max_n=-2)
    # at max_n = 0 no shape has r+1 <= min(p, q): that family is empty
    reports = verify("lemmas", [F3], max_n=0)
    assert reports and all(
        r.verdict == ("skipped" if r.check == "adjacent-rank/bound-equivalence" else "match")
        for r in reports
    )


def test_prefix_family_names_first_failure():
    from hankelcensus.census import _prefix_family

    observed, extra, total = _prefix_family(F2, 2, 3, 1, 1, formula=999, cap=10**7)
    assert observed == 2 and extra == {"prefix": "(0)"} and total == 4
    observed, extra, total = _prefix_family(F2, 2, 3, 1, 1, formula=2, cap=10**7)
    assert observed == 2 and extra == {} and total == 4


def test_verify_skips_on_cap():
    reports = verify("lemmas", [F2], max_n=6, cap=10)
    assert len(reports) == 1
    assert reports[0].verdict == "skipped"
    assert "cap" in reports[0].params["reason"]
    assert all(r.verdict != "mismatch" for r in reports)  # skipped entries do not fail the run


def test_verify_keeps_reports_finished_before_the_cap():
    # the census of the (3, 3) view needs 2^7 > 64 steps; the families run
    # before it are kept, and the rest of the suite is one skipped record
    full = verify("theorems", [F2], cap=128)
    assert len(full) == 115 and all(r.verdict == "match" for r in full)
    capped = verify("theorems", [F2], cap=64)
    *done, skipped = capped

    def untimed(reports):
        return [(r.check, r.params, r.formula_value, r.observed_value, r.verdict) for r in reports]

    assert done and untimed(done) == untimed(full[: len(done)])
    assert skipped.check == "theorems" and skipped.verdict == "skipped"
    assert skipped.params == {"reason": "enumeration needs 128 steps, cap is 64"}


def test_verify_keeps_identity_report_before_the_gadget_limit():
    # the count identity fits GF(29); no default gadget grid does
    reports = verify("identities", [FieldSpec(29)])
    assert [(r.check, r.verdict) for r in reports] == [
        ("annihilator-count-identity", "match"),
        ("identities", "skipped"),
    ]
    assert reports[0].params["instances"] == 29 + 29**2


def identity_sum_report(monkeypatch, faults):
    # the annihilator-sum-identity report on GF(3) with each tuple in
    # `faults` given a term that is off by faults[tuple]
    real = ranklaw._annihilator_term

    def faulty(spec, codes, m, n):
        full, shaved, term = real(spec, codes, m, n)
        return full, shaved, term + faults.get(tuple(codes), 0)

    monkeypatch.setattr(census, "_annihilator_term", faulty)
    reports = {r.check: r for r in verify("identities", [F3])}
    # the count family shares the term, so it fails exactly when a faulted
    # tuple has the length of one of its (m, n) with m <= n+1
    count = reports["annihilator-count-identity"]
    n_hi = count.params["max_n"]
    lengths = {m + n + 1 for n in range(n_hi + 1) for m in range(n + 2)}
    faulted = any(len(x) in lengths for x in faults)
    assert count.verdict == ("mismatch" if faulted else "match")
    return reports["annihilator-sum-identity"]


def test_identity_block_sums_report_one_wrong_term(monkeypatch):
    # one tuple's kernel-counting term off by one must fail exactly the
    # (m, n, k, prefix) blocks that contain it, and name the k = 0 block
    # of the first (m, n) whose tuples have its length
    clean = identity_sum_report(monkeypatch, {})
    assert clean.verdict == "match"
    grid = [
        (m, n)
        for m in range(1, clean.params["max_m"] + 1)
        for n in range(clean.params["max_n"] + 1)
        if m + n + 1 == 4
    ]
    assert len(grid) == 3
    m, n = grid[0]
    rhs = 2 * 3 ** (2 * m)
    faulted = identity_sum_report(monkeypatch, {(1, 2, 0, 1): 1})
    assert faulted.params == {
        **clean.params,
        "first_violation": f"m={m} n={n} a=() sides=({rhs + 1},{rhs})",
    }
    assert faulted.observed_value == sum(min(m, n + 1) + 1 for m, n in grid)
    assert faulted.verdict == "mismatch"
    # two faults that cancel at k = 0 fail every finer block of each; the
    # first is the 1-prefix (1), so the blocks are read by prefix, not suffix
    faulted = identity_sum_report(monkeypatch, {(1, 2, 0, 2): 1, (2, 0, 1, 0): -1})
    assert faulted.params == {
        **clean.params,
        "first_violation": f"m={m} n={n} a=(1) sides=({rhs // 3 + 1},{rhs // 3})",
    }
    assert faulted.observed_value == 2 * sum(min(m, n + 1) for m, n in grid)


def faulted_reports(monkeypatch, suite, max_n, name, wrong):
    # the suite's reports on GF(2) by check, clean and with census.<name>
    # replaced by wrong(real, *args)
    clean = {r.check: r for r in verify(suite, [F2], max_n=max_n)}
    real = getattr(census, name)
    monkeypatch.setattr(census, name, lambda *args: wrong(real, *args))
    faulted = {r.check: r for r in verify(suite, [F2], max_n=max_n)}
    assert list(faulted) == list(clean)
    assert all(r.verdict == "match" for r in clean.values())
    return clean, faulted


def assert_one_violation(clean, faulted, changed, where):
    # each family in `changed` finds one violation, at `where`; the rest match
    for check, report in faulted.items():
        if check in changed:
            assert report.verdict == "mismatch" and report.observed_value == 1
            assert report.params == {**clean[check].params, "first_violation": where}
        else:
            assert (report.verdict, report.params) == ("match", clean[check].params)


def test_rank_bound_reduction_reports_one_wrong_test(monkeypatch):
    def wrong(real, x, m, n, r):
        got = real(x, m, n, r)
        return not got if (x.codes, m, n, r) == ((1, 1, 0), 1, 1, 0) else got

    clean, faulted = faulted_reports(monkeypatch, "lemmas", 2, "rank_le_fast", wrong)
    assert_one_violation(clean, faulted, {"rank-bound-reduction"}, "m=1 n=1 r=0 x=(1, 1, 0)")


def test_adjacent_rank_reports_one_wrong_view(monkeypatch):
    # the (0, 2) view of x = (1, 0, 0) given rank 2: it is the wide view of
    # shape (1, 2), whose tall view [[1, 0], [0, 0]] has rank 1, so exactly
    # wide-le-tall and equal fail there; as the tall view of shape (0, 3) it
    # is saturated and still passes, and rank <= 0 stays false for the
    # reduction
    def wrong(real, spec, rows, limit):
        return 2 if rows == [[1, 0, 0]] else real(spec, rows, limit)

    clean, faulted = faulted_reports(monkeypatch, "lemmas", 2, "_rank_codes", wrong)
    changed = {"adjacent-rank/wide-le-tall", "adjacent-rank/equal"}
    assert_one_violation(clean, faulted, changed, "shape=(1,2) x=(1, 0, 0)")


def test_truncation_bijection_reports_one_wrong_inverse(monkeypatch):
    def wrong(real, w):
        v = real(w)
        return RowVector.from_codes(F2, w.codes + (1,)) if w.codes == (1, 0) else v

    clean, faulted = faulted_reports(monkeypatch, "witnesses", 2, "R_inv", wrong)
    assert_one_violation(clean, faulted, {"truncation-bijection"}, "v=(1, 0, 0)")


def test_suite_lemmas_skips_a_family_with_no_instance():
    # at max_n = 0 no shape has r+1 <= min(p, q), so the suite itself, not
    # only verify, reports the family as skipped
    reports = suite_lemmas(F3, 0)
    assert [(r.check, r.verdict) for r in reports if not r.params["instances"]] == [
        ("adjacent-rank/bound-equivalence", "skipped")
    ]
    assert all(r.verdict == "match" for r in reports if r.params["instances"])


def test_verify_large_field_skips_exhaustive_suites():
    # a field too large to sweep must skip quickly instead of hanging
    reports = verify("all", [FieldSpec(2147483647)])
    assert reports
    assert all(r.verdict == "skipped" for r in reports)
    assert all(r.verdict != "mismatch" for r in reports)
