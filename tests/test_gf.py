"""Field arithmetic: axioms, canonical ordering, parsing, validation."""

from __future__ import annotations

import dataclasses
import itertools
import operator
import random

import pytest

from hankelcensus.gf import (
    BUILTIN_ORDERS,
    FieldElement,
    FieldSpec,
    format_element,
    parse_element,
    parse_field,
)

AXIOM_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]

GF2_17 = "2^17:1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1"
GF3_11 = "3^11:2,0,1,0,0,0,0,0,0,0,0,1"


def test_builtin_orders_construct():
    assert BUILTIN_ORDERS == (4, 8, 9, 16, 25, 27, 32, 49, 64)
    for q in BUILTIN_ORDERS:
        spec = FieldSpec.from_order(q)
        assert spec.order == q
        assert spec.modulus[-1] == 1
        assert len(spec.modulus) == spec.d + 1


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_field_axioms_exhaustive(q):
    spec = FieldSpec.from_order(q)
    elems = spec.elements()
    zero, one = spec.zero, spec.one
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + -a == zero
        assert a - a == zero
        if a != zero:
            assert a * (one / a) == one
            assert a / a == one
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
        assert a - b == a + -b
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_elements_unique_and_complete(q):
    spec = FieldSpec.from_order(q)
    elems = spec.elements()
    assert len(elems) == q
    assert len(set(elems)) == q
    assert elems[0] == spec.zero
    assert elems[1] == spec.one


def test_element_order_examples():
    assert [str(e) for e in FieldSpec(3).elements()] == ["0", "1", "2"]
    assert [str(e) for e in FieldSpec.from_order(4).elements()] == ["0", "1", "t", "1+t"]


def test_add_examples():
    f5 = FieldSpec(5)
    assert f5.element(3) + f5.element(4) == f5.element(2)
    f4 = FieldSpec.from_order(4)
    t = f4.element(2)
    assert t + t == f4.zero
    f9 = FieldSpec.from_order(9)
    for x in f9.elements():
        assert x + f9.zero == x


def test_mul_examples():
    f5 = FieldSpec(5)
    assert f5.element(3) * f5.element(4) == f5.element(2)
    # t * t reduces by the modulus t^2 + t + 1, so t^2 = -(t+1) = 1+t over GF(2)
    f4 = FieldSpec.from_order(4)
    t = f4.element(2)
    assert t * t == f4.element((1, 1))
    f9 = FieldSpec.from_order(9)
    for x in f9.elements():
        assert x * f9.one == x


def test_inv_examples():
    f5 = FieldSpec(5)
    assert f5.one / f5.element(2) == f5.element(3)
    f2 = FieldSpec(2)
    assert f2.one / f2.one == f2.one
    # from t*t = 1+t it follows that t*(1+t) = t^2+t = 1
    f4 = FieldSpec.from_order(4)
    assert f4.one / f4.element(2) == f4.element((1, 1))
    # every field class: mod p, log tables with XOR or Zech sums, and
    # polynomial arithmetic above 2^16 for p = 2 and odd p; the bound
    # inverse raises too, not only the element and code operations
    f9, big = FieldSpec.from_order(9), FieldSpec(2**31 - 1)
    for spec in (f5, f2, f4, f9, parse_field(GF2_17), parse_field(GF3_11), big):
        with pytest.raises(ZeroDivisionError):
            spec.one / spec.zero
        with pytest.raises(ZeroDivisionError):
            spec.inv_code(0)
        with pytest.raises(ZeroDivisionError):
            spec.ops.inv(0)
        a = spec.order - 1
        assert spec.ops.mul(spec.ops.inv(a), a) == 1


def test_mismatched_fields_rejected():
    f2, f3 = FieldSpec(2), FieldSpec(3)
    # elements of different fields, most with equal codes; GF(9) under two
    # moduli has equal coefficients too
    pairs = (
        (f2.one, f3.one),
        (FieldSpec.from_order(9).element(5), FieldSpec(3, 2, (1, 0, 1)).element(5)),
        (parse_field(GF2_17).one, f2.one),
        (FieldSpec(2**31 - 1).element(7), FieldSpec(7).element(0)),
    )
    for a, b in pairs:
        assert a != b
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError):
                op(a, b)
            with pytest.raises(ValueError):
                op(b, a)
        with pytest.raises(ValueError):
            a.spec.element(b)
    # the fields are checked before the divisor is inverted, so a zero
    # divisor from another field is a ValueError, not a ZeroDivisionError
    for a, b in ((f2.one, f3.zero), (f3.one, f2.zero), (f2.zero, f3.zero)):
        with pytest.raises(ValueError):
            a / b
    # equal specs constructed twice interoperate
    g1 = FieldSpec(2, 2, (1, 1, 1))
    g2 = FieldSpec(2, 2, (1, 1, 1))
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1.one - g2.one == g1.zero
    assert g1.one / g2.one == g1.one


def test_prime_validation():
    for bad in (0, 1, 4, 6, 9, 2**31 + 11):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    big = FieldSpec(2147483647)  # largest prime below 2^31
    a = big.element(123456789)
    assert a * (big.one / a) == big.one


def test_modulus_validation():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # (t+1)^2, reducible
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (1, 1))  # wrong degree
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (1, 1, 2))  # not monic
    with pytest.raises(ValueError):
        FieldSpec(11, 2)  # no built-in modulus for GF(121)
    alt9 = FieldSpec(3, 2, (1, 0, 1))  # t^2 + 1, irreducible over GF(3)
    assert alt9.order == 9
    assert alt9 != FieldSpec.from_order(9)


def test_modulus_coefficients_follow_the_literal_rule():
    # d+1 coefficients at d = 1 too, each with -p < c < p, not reduced mod p
    for p, d, modulus in ((5, 1, (1, 2, 1)), (5, 1, (1,)), (2, 2, (3, 1, 1)), (3, 2, (1, 0, 4))):
        with pytest.raises(ValueError):
            FieldSpec(p, d, modulus)
    for text in ("5:1,2,1", "2^2:3,1,1", "2^2:1,1,-2"):
        with pytest.raises(ValueError):
            parse_field(text)
    # a negative coefficient means its negation; every monic linear modulus
    # gives the prime field itself
    assert parse_field("2^2:-1,1,1") == FieldSpec.from_order(4)
    assert parse_field("5:3,1") == parse_field("5:-4,1") == FieldSpec(5)


def test_irreducibility_gcd_path():
    # degree 25 over GF(2) has too many candidate divisors for trial
    # division, so this exercises the x^(p^i) - x gcd test
    coeffs = [0] * 26
    coeffs[0] = coeffs[3] = coeffs[25] = 1  # x^25 + x^3 + 1, irreducible
    spec = FieldSpec(2, 25, tuple(coeffs))
    assert spec.order == 2**25
    a = spec.element(12345)
    assert spec.mul_code(a.code, spec.inv_code(a.code)) == 1
    bad = [0] * 26
    bad[0] = bad[25] = 1  # x^25 + 1 has the root 1
    with pytest.raises(ValueError):
        FieldSpec(2, 25, tuple(bad))


def test_parse_field_round_trip():
    assert parse_field("9") == FieldSpec.from_order(9)
    assert parse_field("2^2:1,1,1") == FieldSpec.from_order(4)
    assert parse_field("7") == FieldSpec(7)
    for text in ("6", "121", "x", "0", "2^:1,1", "\u0663", "5_0", "+5"):
        with pytest.raises(ValueError):
            parse_field(text)
    for q in (4, 9, 27, 101):
        spec = FieldSpec.from_order(q) if q != 101 else FieldSpec(101)
        assert parse_field(spec.spec_string()) == spec


@pytest.mark.parametrize(
    "q",
    [4, 7, 9, 27, pytest.param(GF2_17, id="2^17"), pytest.param(2**31 - 1, id="2^31-1")],
)
def test_element_text_round_trip(q):
    # an element is its spec and its code; built from a code, from its
    # coefficients or by parsing its text, it is the same value
    assert [f.name for f in dataclasses.fields(FieldElement)] == ["spec", "code"]
    spec = parse_field(str(q))
    if spec.order <= 27:
        codes = range(spec.order)
        assert [e.code for e in spec.elements()] == list(codes)
    else:
        codes = (0, 1, 2, spec.p - 1, 12345, spec.order // 3, spec.order - 1)
    for code in codes:
        e = spec.element(code)
        from_coeffs = spec.element(e.coeffs)
        parsed = parse_element(spec, format_element(e))
        assert e.code == from_coeffs.code == parsed.code == code
        assert e.coeffs == from_coeffs.coeffs == parsed.coeffs == spec.decode(code)
        assert len(e.coeffs) == spec.d and spec.encode(e.coeffs) == code
        assert e == from_coeffs == parsed and spec.element(e) is e
        assert hash(e) == hash(from_coeffs) == hash(parsed)
        assert len({e, from_coeffs, parsed}) == 1
        assert bool(e) == (code != 0) == any(e.coeffs)
        assert e + -e == spec.zero
    if spec.d > 2:
        top = spec.element((1,) + (0,) * (spec.d - 2) + (1,))
        assert top.code == 1 + spec.p ** (spec.d - 1)
        assert format_element(top) == f"1+t^{spec.d - 1}"


def test_parse_element_errors():
    f9 = FieldSpec.from_order(9)
    for bad in ("", "t^5", "1+", "u", "1_0", "\u0662", "t^-1", "t^+1", "2*t^\u0661", "-"):
        with pytest.raises(ValueError):
            parse_element(f9, bad)
    assert parse_element(f9, "2*t+1") == f9.element((1, 2))
    assert parse_element(FieldSpec(5), "-1") == FieldSpec(5).element(4)


def test_out_of_range_literals_rejected():
    f5, f4, f9 = FieldSpec(5), FieldSpec.from_order(4), FieldSpec.from_order(9)
    for bad in ("7", "5", "-5", "12"):
        with pytest.raises(ValueError):
            parse_element(f5, bad)
    assert [parse_element(f5, s).coeffs for s in ("-4", "-1", "0", "4")] == [(1,), (4,), (0,), (4,)]
    for bad in ("7", "2", "2*t", "1+3*t"):
        with pytest.raises(ValueError):
            parse_element(f4, bad)
    assert parse_element(f9, "-1+2*t") == f9.element((2, 2))
    with pytest.raises(ValueError):
        parse_element(f9, "3*t")


def test_element_rejects_out_of_range_codes_and_coefficients():
    f5, f9 = FieldSpec(5), FieldSpec.from_order(9)
    for spec, bad in ((f5, 5), (f5, -1), (f5, 7), (f9, 9), (f9, -1)):
        with pytest.raises(ValueError):
            spec.element(bad)
    for spec, bad in ((f5, (5,)), (f5, (-1,)), (f9, (3, 0)), (f9, (0, -1)), (f9, (1, 1, 1))):
        with pytest.raises(ValueError):
            spec.element(bad)
    assert f5.element(4) == f5.element((4,))
    assert f9.element(8) == f9.element((2, 2))


def test_operations_are_bound_once_and_lazily():
    # building a spec binds nothing and builds no table; the first use
    # binds one record, which every later use reads
    for text in ("101", "64", "9", GF2_17, GF3_11):
        spec = parse_field(text)
        assert spec._tables is None and spec._ops is None
        ops = spec.ops
        assert spec.ops is ops and spec._ops is ops
        assert spec.add_code(1, 1) == ops.add(1, 1)


@pytest.mark.parametrize("text", ["13", "8", "9", GF2_17, GF3_11])
def test_dot_matches_element_sums_of_products(text):
    # every field class: mod p, log tables with XOR (GF(8)) or Zech (GF(9))
    # sums, and polynomial arithmetic above 2^16 for p = 2 and odd p
    spec = parse_field(text)
    q, dot = spec.order, spec.ops.dot

    def expected(u, v):
        total = spec.zero
        for a, b in zip(u, v):
            total = total + spec.element(a) * spec.element(b)
        return total.code

    rng = random.Random(q)
    cases = [([0] * n, [rng.randrange(q) for _ in range(n)]) for n in range(7)]
    for n in range(7):
        for _ in range(30):
            u, v = ([rng.choice((0, rng.randrange(1, q))) for _ in range(n)] for _ in "uv")
            cases += [(u, v), (v, u)]
    if spec.tables is not None:
        # the running sum is the only state of a table dot, and pairs of
        # length 2 give it every value before every product
        cases += [
            (list(u), list(v))
            for u in itertools.product(range(q), repeat=2)
            for v in itertools.product(range(q), repeat=2)
        ]
    for u, v in cases:
        assert dot(u, v) == expected(u, v)


def test_log_tables_are_linear_size():
    # one O(q) structure per extension field; prime fields have none
    assert FieldSpec(101).tables is None
    for q in (4, 9, 64):
        spec = FieldSpec.from_order(q)
        exp, log, zech = spec.tables
        assert len(exp) == 6 * (q - 1) + 1 and len(log) == q
        assert len(zech) == (0 if spec.p == 2 else 7 * (q - 1))
        assert sorted(exp[: q - 1]) == list(range(1, q))  # a primitive element
    big = parse_field("2^11:1,0,1,0,0,0,0,0,0,0,0,1")
    assert len(big.tables.log) == 2048
    assert big.mul_code(big.inv_code(1234), 1234) == 1


def test_element_operators():
    f7 = FieldSpec(7)
    a, b = f7.element(3), f7.element(5)
    assert a + b == f7.element(1)
    assert a - b == f7.element(5)
    assert a * b == f7.element(1)
    assert a / b == f7.element(2)  # 5 * 2 = 3 mod 7
    assert -a == f7.element(4)
    assert bool(a) and not bool(f7.zero)


def test_spec_display():
    assert str(FieldSpec(5)) == "GF(5)"
    assert str(FieldSpec.from_order(9)) == "GF(9)"
    assert FieldSpec(5).spec_string() == "5"
    assert FieldSpec.from_order(9).spec_string() == "3^2:2,2,1"
