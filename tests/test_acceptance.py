"""Acceptance suite: every counting law and gadget at its stated bounds.

One test per criterion; each prints a PASS/FAIL line (written through the
real stdout so the lines survive pytest's capture) and asserts exactness
at the stated tolerance: formula-vs-oracle comparisons are exact, the
single sampled criterion uses a four-standard-error band, and the two
runtime-bounded criteria assert their wall-clock budgets.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time

import pytest

import oracles
from hankelcensus.census import (
    CountQuery,
    brute_census,
    brute_count_jt_singular,
    brute_count_rank_le,
    count_det_zero_formula,
    count_jt_singular_formula,
    count_rank_eq_formula,
    monte_carlo_rank_le,
    rank_le_probability,
    suite_lemmas,
)
from hankelcensus.gf import FieldSpec
from hankelcensus.hankel import RowVector, iter_seq_tuples
from hankelcensus.ranklaw import _annihilator_term
from hankelcensus.witness import (
    NiceContext,
    alpha,
    beta,
    is_strongly_nice,
    is_weakly_nice,
    solve_tail,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec.from_order(4)

_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    # lets _announce bypass pytest's capture so the per-criterion
    # PASS/FAIL lines reach the real stdout
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE criterion-{num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def _finish(num: int, name: str, violations: list, detail: str = "") -> None:
    _announce(num, name, not violations, detail)
    assert not violations, f"criterion {num} [{name}]: first failures {violations[:5]}"


def _annihilates(field, vcodes, xcodes, ncols) -> bool:
    # literal annihilation test, local to this suite
    add, mul = field.add_code, field.mul_code
    for t in range(ncols):
        acc = 0
        for i, vi in enumerate(vcodes):
            if vi:
                acc = add(acc, mul(vi, xcodes[i + t]))
        if acc:
            return False
    return True


def test_c01_prefix_fixed_count():
    started = time.monotonic()
    violations = []
    points = 0
    for field in (F2, F3, F4):
        q = field.order
        for n in range(4):
            for m in range(n + 1):
                for r in range(m + 1):
                    for k in range(r + 1):
                        for a in iter_seq_tuples(field, k):
                            got = brute_count_rank_le(CountQuery(field, m, n, r, a))
                            if got != q ** (2 * r - k):
                                violations.append((q, m, n, r, k, str(a), got))
                            points += 1
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        violations.append(("runtime", elapsed))
    _finish(1, "prefix-fixed-count", violations, f"{points} grid points, {elapsed:.1f}s")


def test_c02_unrestricted_count():
    violations = []
    points = 0
    for field in (F2, F3, F4):
        q = field.order
        for n in range(4):
            for m in range(n + 1):
                for r in range(m + 1):
                    got = brute_count_rank_le(CountQuery(field, m, n, r))
                    if got != q ** (2 * r):
                        violations.append((q, m, n, r, got))
                    points += 1
    _finish(2, "unrestricted-count", violations, f"{points} grid points")


def test_c03_rank_exact_census():
    violations = []
    points = 0
    for field in (F2, F3):
        q = field.order
        for n in range(4):
            for m in range(n + 1):
                dist = brute_census(field, m, n)
                if dist.total != q ** (m + n + 1):
                    violations.append((q, m, n, "total", dist.total))
                for r in range(m + 4):  # includes the zero branch r > m+1
                    expected = count_rank_eq_formula(field, m, n, r)
                    got = dist.counts.get(r, 0)
                    if got != expected:
                        violations.append((q, m, n, r, got, expected))
                    points += 1
    _finish(3, "rank-exact-census", violations, f"{points} branches")


def test_c04_det_zero_count():
    violations = []
    points = 0
    for field in (F2, F3):
        for n in range(3):
            for k in range(n + 1):
                expected = count_det_zero_formula(field, n, k)
                for a in iter_seq_tuples(field, k):
                    got = brute_count_rank_le(CountQuery(field, n, n, n, a))
                    if got != expected:
                        violations.append((field.order, n, k, str(a), got, expected))
                    points += 1
    _finish(4, "det-zero-count", violations, f"{points} grid points")


def test_c05_jt_singular_count():
    violations = []
    points = 0
    for field in (F2, F3):
        for total in range(1, 7):
            for u in range(1, total + 1):
                v = total + 1 - u
                expected = count_jt_singular_formula(field, u, v)
                flip = brute_count_jt_singular(field, u, v, path="flip")
                direct = brute_count_jt_singular(field, u, v, path="direct")
                if not (flip == direct == expected):
                    violations.append((field.order, u, v, flip, direct, expected))
                points += 1
    # the worked case: u=2, v=5 over GF(2) counts 32 singular tuples
    if brute_count_jt_singular(F2, 2, 5) != 32:
        violations.append(("worked-case", 2, 5))
    _finish(5, "jt-singular-count", violations, f"{points} shapes, both oracles")


def test_c06_rank_lemma_chain():
    violations = []
    checked = 0
    for field, bound in ((F2, 6), (F3, 4)):
        for report in suite_lemmas(field, bound):
            checked += report.params["instances"]
            if report.observed_value != 0:
                violations.append((field.order, report.check, report.observed_value))
    _finish(6, "rank-lemma-chain", violations, f"{checked} instances")


def test_c07_annihilator_count_identity():
    violations = []
    points = 0
    for field, n_hi in ((F2, 3), (F3, 2)):
        q = field.order
        for n in range(n_hi + 1):
            for m in range(n + 2):
                nonzero_wide = [
                    vc for vc in itertools.product(range(q), repeat=m + 1) if any(vc)
                ]
                nonzero_narrow = [
                    vc for vc in itertools.product(range(q), repeat=m) if any(vc)
                ]
                for x in iter_seq_tuples(field, m + n + 1):
                    # the term the identity suite computes, against minor
                    # ranks and against vector enumeration
                    full, _, term = _annihilator_term(field, x.codes, m, n)
                    lhs, rhs = oracles.elkies_identity_sides(x, m, n)
                    literal = sum(
                        1 for vc in nonzero_wide if _annihilates(field, vc, x.codes, n + 1)
                    ) - q * sum(
                        1 for vc in nonzero_narrow if _annihilates(field, vc, x.codes, n + 2)
                    )
                    if not (lhs == (q - 1) * (full <= m) and lhs == rhs == term == literal):
                        violations.append((q, m, n, x.codes, lhs, rhs, term, literal))
                    points += 1
    _finish(7, "annihilator-count-identity", violations, f"{points} tuples, three routes")


def test_c08_annihilator_sum_identity():
    violations = []
    points = 0
    for field in (F2, F3):
        for m in range(4):
            for n in range(3):
                for k in range(min(m, n + 1) + 1):
                    for a in iter_seq_tuples(field, k):
                        # the suite's summed term against minor ranks
                        lhs, rhs = oracles.sumlast_sides(field, m, n, a)
                        summed = sum(
                            _annihilator_term(field, x.codes, m, n)[2]
                            for x in iter_seq_tuples(field, m + n + 1, a)
                        )
                        if not lhs == rhs == summed:
                            violations.append((field.order, m, n, k, str(a), lhs, rhs, summed))
                        points += 1
    _finish(8, "annihilator-sum-identity", violations, f"{points} contexts")


def test_c09_free_entry_bijection():
    violations = []
    contexts = 0
    for field in (F2, F3):
        q = field.order
        elements = field.elements()
        for m in range(1, 4):
            for n in range(3):
                length = m + n + 1
                for vtail in itertools.product(range(q), repeat=m):
                    if not any(vtail):
                        continue
                    v = RowVector.from_codes(field, vtail + (0,))
                    for k in range(n + 2):
                        for a in iter_seq_tuples(field, k):
                            ctx = NiceContext(field, m, n, v, a)
                            weak = []
                            strong = []
                            for x in iter_seq_tuples(field, length, a):
                                if is_weakly_nice(x, ctx):
                                    weak.append(x)
                                if is_strongly_nice(x, ctx):
                                    strong.append(x)
                            contexts += 1
                            if len(weak) != q * len(strong):
                                violations.append(
                                    (q, m, n, k, str(v), str(a), len(weak), len(strong))
                                )
                            for x in weak:
                                y, s = beta(x, ctx)
                                if alpha(y, s, ctx) != x:
                                    violations.append(("beta-alpha", q, m, n, x.codes))
                            for s in strong:
                                for y in elements:
                                    if beta(alpha(y, s, ctx), ctx) != (y, s):
                                        violations.append(
                                            ("alpha-beta", q, m, n, s.codes, str(y))
                                        )
    _finish(9, "free-entry-bijection", violations, f"{contexts} contexts")


def test_c10_tail_solver_count():
    violations = []
    contexts = 0
    for field in (F2, F3):
        q = field.order
        for m in range(4):
            for n in range(3):
                length = m + n + 1
                all_codes = list(itertools.product(range(q), repeat=length))
                for vtail in itertools.product(range(q), repeat=m):
                    for vlast in range(1, q):
                        vcodes = vtail + (vlast,)
                        v = RowVector.from_codes(field, vcodes)
                        solutions = {
                            xc
                            for xc in all_codes
                            if _annihilates(field, vcodes, xc, n + 1)
                        }
                        for head in iter_seq_tuples(field, m):
                            out = solve_tail(v, head, n)
                            if not _annihilates(field, vcodes, out.codes, n + 1):
                                violations.append(("annihilation", q, vcodes, head.codes))
                            if out.codes not in solutions:
                                violations.append(("coverage", q, vcodes, out.codes))
                        for k in range(m + 1):
                            expected = q ** (m - k)
                            buckets: dict[tuple, int] = {}
                            for sol in solutions:
                                buckets[sol[:k]] = buckets.get(sol[:k], 0) + 1
                            contexts += q**k
                            if len(buckets) != q**k or any(
                                c != expected for c in buckets.values()
                            ):
                                violations.append(("count", q, m, n, k, vcodes))
    _finish(10, "tail-solver-count", violations, f"{contexts} prefix contexts")


def test_c11_full_width_count():
    violations = []
    points = 0
    for field in (F2, F3):
        q = field.order
        for m in range(1, 4):
            n = m - 1
            for k in range(m + 1):
                expected = q ** (m + n + 1 - k)
                for a in iter_seq_tuples(field, k):
                    query = CountQuery(field, m, n, m, a)
                    assert query.regime == "full-width"
                    got = brute_count_rank_le(query)
                    if got != expected:
                        violations.append((q, m, k, str(a), got, expected))
                    points += 1
    _finish(11, "full-width-count", violations, f"{points} grid points")


def test_c12_monte_carlo_large_field():
    started = time.monotonic()
    query = CountQuery(FieldSpec(101), 4, 4, 4)
    target = rank_le_probability(query)
    est = monte_carlo_rank_le(query, 10**6, rng_seed=7)
    elapsed = time.monotonic() - started
    diff = abs(float(est.estimate - target))
    violations = []
    if diff > 4.0 * est.stderr:
        violations.append(("band", float(est.estimate), float(target), est.stderr))
    if elapsed >= 120.0:
        violations.append(("runtime", elapsed))
    _finish(
        12,
        "monte-carlo-large-field",
        violations,
        f"estimate {est.successes}/10^6, target 1/101, {elapsed:.1f}s",
    )


def test_c13_parallel_determinism():
    # the CLI accepts --jobs and ignores it, since enumeration runs on one
    # thread; the flag must still leave every stdout byte as it is
    runs = {}
    for jobs in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "hankelcensus", "verify", "--suite", "all",
             "--jobs", jobs],
            capture_output=True,
            timeout=600,
        )
        runs[jobs] = proc
    violations = []
    if runs["1"].returncode != 0 or runs["4"].returncode != 0:
        violations.append(("exit", runs["1"].returncode, runs["4"].returncode))
    if runs["1"].stdout != runs["4"].stdout:
        violations.append(("stdout differs",))
    _finish(
        13,
        "parallel-determinism",
        violations,
        f"{len(runs['1'].stdout)} bytes compared",
    )
