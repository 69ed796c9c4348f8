"""Exact arithmetic in finite fields GF(p^d).

Elements are stored as integer *codes*: the element
c0 + c1*t + ... + c_{d-1}*t^{d-1} of GF(p)[t]/(modulus), every ci in
[0, p), has the code in [0, Q), Q = p^d, whose little-endian base-p digits
are (c0, c1, ..., c_{d-1}).  Its coefficient tuple is decoded on demand.
Code order is the canonical enumeration order (0 first, 1 second, then
t, 1+t, ... for GF(4)).

All arithmetic on codes is bound here, once per field: FieldSpec.ops is
a CodeOps record of closures (add, sub, neg, mul, inv, the row update of
elimination, the dot product and the lane update of lockstep
elimination), which the code methods (add_code and the others), the
FieldElement operators (+, -, *, / and unary -) and the kernels of the
other modules call.  Prime fields compute mod p.  Extension fields up to
order 2^16 use O(Q) discrete-log tables (_LogTables), built on first
use, for products and inverses, and add by XOR for p = 2 and by Zech
logarithms for odd p.  Larger ones multiply and reduce polynomials,
invert by the extended Euclidean algorithm against the modulus, and add
by XOR for p = 2 and digit by digit otherwise.

Prime fields work for any prime p < 2^31.  Extension fields ship with
fixed Conway moduli for Q in {4, 8, 9, 16, 25, 27, 32, 49, 64}; any other
extension field needs an explicit irreducible modulus.

Field spec text format: "Q" for a built-in field (e.g. "9"), or
"p^d:c0,c1,...,cd" with little-endian modulus coefficients.  Elements
render as plain integers when d = 1 and as "c0+c1*t+..." otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul as int_mul, xor
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "FieldSpec",
    "FieldElement",
    "parse_field",
    "parse_element",
    "format_element",
    "BUILTIN_ORDERS",
]

_MAX_PRIME = 2**31

# Largest extension-field order that gets log tables (see _LogTables).
_TABLE_LIMIT = 1 << 16

# Conway polynomials (little-endian, monic) for the built-in extension orders.
_BUILTIN_MODULI: dict[int, tuple[int, tuple[int, ...]]] = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (2, 2, 1)),
    16: (2, (1, 1, 0, 0, 1)),
    25: (5, (2, 4, 1)),
    27: (3, (1, 2, 0, 1)),
    32: (2, (1, 0, 1, 0, 0, 1)),
    49: (7, (3, 6, 1)),
    64: (2, (1, 1, 0, 1, 1, 0, 1)),
}

BUILTIN_ORDERS = tuple(sorted(_BUILTIN_MODULI))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


# ----------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are little-endian integer
# lists with no trailing zeros ([] is the zero polynomial).
# ----------------------------------------------------------------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m need not be monic; its leading coefficient is inverted once.
    r = [x % p for x in a]
    _poly_trim(r)
    dm = len(m) - 1
    lead_inv = pow(m[-1], p - 2, p)
    while len(r) - 1 >= dm and r:
        f = r[-1] * lead_inv % p
        shift = len(r) - 1 - dm
        for i, mi in enumerate(m):
            r[shift + i] = (r[shift + i] - f * mi) % p
        _poly_trim(r)
    return r


def _poly_powmod(base: Sequence[int], e: int, m: Sequence[int], p: int) -> list[int]:
    result = [1]
    b = _poly_mod(base, m, p)
    while e > 0:
        if e & 1:
            result = _poly_mod(_poly_mul(result, b, p), m, p)
        b = _poly_mod(_poly_mul(b, b, p), m, p)
        e >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = _poly_trim([x % p for x in a])
    b = _poly_trim([x % p for x in b])
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_inv(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """The inverse of a mod m, for a prime to m and both reduced mod p, by extended Euclid."""
    # s0*a = r0 and s1*a = r1 (mod m) throughout
    r0, r1 = _poly_trim(list(m)), _poly_trim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        lead_inv = pow(r1[-1], p - 2, p)
        while len(r0) >= len(r1):
            f = r0[-1] * lead_inv % p
            shift = len(r0) - len(r1)
            for i, c in enumerate(r1):
                r0[shift + i] = (r0[shift + i] - f * c) % p
            s0 += [0] * (shift + len(s1) - len(s0))
            for i, c in enumerate(s1):
                s0[shift + i] = (s0[shift + i] - f * c) % p
            _poly_trim(r0)
            _poly_trim(s0)
        r0, r1, s0, s1 = r1, r0, s1, s0
    # r1 is the nonzero constant gcd
    c = pow(r1[0], p - 2, p)
    return [x * c % p for x in s1]


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p).

    Small search spaces are checked by trial division over all monic
    divisors of degree <= d/2; larger ones use the gcd conditions with
    x^(p^i) - x.
    """
    d = len(modulus) - 1
    if d == 1:
        return True
    n_candidates = sum(p**e for e in range(1, d // 2 + 1))
    if n_candidates <= 4096:
        for e in range(1, d // 2 + 1):
            for low in itertools.product(range(p), repeat=e):
                divisor = list(low) + [1]
                if not _poly_mod(modulus, divisor, p):
                    return False
        return True
    x = [0, 1]
    t = x
    for _ in range(d):
        t = _poly_powmod(t, p, modulus, p)
    diff = _poly_trim([(a - b) % p for a, b in itertools.zip_longest(t, x, fillvalue=0)])
    if diff:
        return False
    for e in _prime_factors(d):
        t = x
        for _ in range(d // e):
            t = _poly_powmod(t, p, modulus, p)
        diff = _poly_trim([(a - b) % p for a, b in itertools.zip_longest(t, x, fillvalue=0)])
        g = _poly_gcd(modulus, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


class _LogTables(NamedTuple):
    """Log tables of GF(q) for a primitive element g, with L = q - 1.

    exp[i] is the code of g^(i mod L) for 0 <= i < 3L and 0 for
    3L <= i <= 6L; log[a] is the exponent of a, and log[0] = 3L.  So
    exp[log[a] + log[b]] is a*b for zero operands too, with no branch.
    zech (empty when p = 2) is read at offset 3L: zech[3L + n] is n for
    -3L <= n < -L, log(1 + g^n) for -L <= n < 2L, and 0 for 2L <= n < 4L.
    Then a + b = exp[log[a] + zech[3L + log[b] - log[a]]] for all a, b.
    """

    exp: list[int]
    log: list[int]
    zech: list[int]


def _encode(coeffs: Sequence[int], p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


def _decode(code: int, p: int, d: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        code, c = divmod(code, p)
        out.append(c)
    return tuple(out)


def _mul_codes(a: int, b: int, p: int, d: int, modulus: Sequence[int]) -> int:
    """The product of two codes by polynomial multiplication and reduction."""
    return _encode(_poly_mod(_poly_mul(_decode(a, p, d), _decode(b, p, d), p), modulus, p), p)


class CodeOps(NamedTuple):
    """The code operations of one field, bound once by FieldSpec.ops.

    add, sub, neg, mul and inv act on codes; inv raises ZeroDivisionError
    on 0.  sub_mul(v, f, b) returns v - f*b on code lists and accepts
    f = 0.  dot(u, v) returns the sum of u[i]*v[i] over two code lists of
    one length, 0 for empty ones.  lanes(rows, k), for rows[i][j] the
    list of entry (i, j) over a batch of matrices, clears column k below
    row k without inverting the pivots: it replaces rows[i][k+1:] for
    i > k, and a lane whose pivot (k, k) is 0 comes out as garbage.
    """

    add: Callable[[int, int], int]
    sub: Callable[[int, int], int]
    neg: Callable[[int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]
    sub_mul: Callable[[list[int], int, list[int]], list[int]]
    dot: Callable[[list[int], list[int]], int]
    lanes: Callable[[list, int], None]


def _prime_ops(p: int) -> CodeOps:
    def inv(a):
        if not a:
            raise ZeroDivisionError(f"inversion of zero in GF({p})")
        return pow(a, -1, p)

    def sub_mul(v, f, b):
        return [(x - f * y) % p for x, y in zip(v, b)]

    def dot(u, v):
        return sum(map(int_mul, u, v)) % p

    def lanes(rows, k):
        prow = rows[k]
        A = prow[k]
        for row in rows[k + 1 :]:
            F = row[k]
            row[k + 1 :] = [
                [(a * x - f * y) % p for a, f, x, y in zip(A, F, X, Y)]
                for X, Y in zip(row[k + 1 :], prow[k + 1 :])
            ]

    return CodeOps(
        lambda a, b: (a + b) % p,
        lambda a, b: (a - b) % p,
        lambda a: -a % p,
        lambda a, b: a * b % p,
        inv,
        sub_mul,
        dot,
        lanes,
    )


def _table_ops(tab: _LogTables) -> CodeOps:
    exp, log, zech = tab
    L = len(log) - 1
    half = L // 2  # -1 = g^half
    nil = 3 * L  # log[0]

    def mul(a, b):
        return exp[log[a] + log[b]]

    def inv(a):
        if not a:
            raise ZeroDivisionError(f"inversion of zero in GF({L + 1})")
        return exp[L - log[a]]

    if not zech:  # p = 2: a sum is the XOR of codes, and -a = a

        def sub_mul(v, f, b):
            lf = log[f]
            return [x ^ exp[lf + log[y]] for x, y in zip(v, b)]

        def dot(u, v):
            s = 0
            for a, b in zip(u, v):
                s ^= exp[log[a] + log[b]]
            return s

        def lanes(rows, k):
            prow = rows[k]
            la = [log[a] for a in prow[k]]
            ly = [[log[y] for y in Y] for Y in prow[k + 1 :]]
            for row in rows[k + 1 :]:
                # log w for w = f/a, and log 0 where f = 0: exp reads 0 at
                # log w + log y whenever either is log 0
                lw = [(log[f] - l) % L if f else nil for f, l in zip(row[k], la)]
                row[k + 1 :] = [
                    [x ^ exp[w + y] for x, w, y in zip(X, lw, Y)]
                    for X, Y in zip(row[k + 1 :], ly)
                ]

        return CodeOps(xor, xor, lambda a: a, mul, inv, sub_mul, dot, lanes)

    # odd p: x + w*y by Zech logarithms, reading the Zech table at
    # c + log y - log x for c = 3L + log w; w = -1 is log w = half
    def add(a, b):
        la = log[a]
        return exp[la + zech[nil + log[b] - la]]

    def neg(a):
        return exp[log[a] + half]

    def sub_mul(v, f, b):
        if not f:
            return v
        c = nil + (log[f] + half) % L
        return [exp[(lx := log[x]) + zech[c + log[y] - lx]] for x, y in zip(v, b)]

    def dot(u, v):
        # s + a*b reads the Zech table at n = log a + log b - log s, which
        # for nonzero a and b lies in [-3L, 2L - 1) and gives back n at
        # s = 0.  Zero products are skipped: at a = b = 0 and s != 0, n
        # would run past the table
        s = 0
        for a, b in zip(u, v):
            if a and b:
                ls = log[s]
                s = exp[ls + zech[nil + log[a] + log[b] - ls]]
        return s

    def lanes(rows, k):
        prow = rows[k]
        la = [log[a] for a in prow[k]]
        ly = [[log[y] for y in Y] for Y in prow[k + 1 :]]
        for row in rows[k + 1 :]:
            # c as in sub_mul for w = -f/a; 0 marks f = 0, where x stays
            cw = [nil + (log[f] - l + half) % L if f else 0 for f, l in zip(row[k], la)]
            row[k + 1 :] = [
                [exp[(lx := log[x]) + zech[c + y - lx]] if c else x for x, c, y in zip(X, cw, Y)]
                for X, Y in zip(row[k + 1 :], ly)
            ]

    return CodeOps(add, lambda a, b: add(a, neg(b)), neg, mul, inv, sub_mul, dot, lanes)


def _poly_ops(p: int, d: int, modulus: tuple[int, ...]) -> CodeOps:
    def mul(a, b):
        return _mul_codes(a, b, p, d, modulus)

    def inv(a):
        if not a:
            raise ZeroDivisionError(f"inversion of zero in GF({p**d})")
        return _encode(_poly_inv(_decode(a, p, d), modulus, p), p)

    if p == 2:
        add, sub, neg = xor, xor, lambda a: a
    else:

        def add(a, b):
            return _encode([(x + y) % p for x, y in zip(_decode(a, p, d), _decode(b, p, d))], p)

        def sub(a, b):
            return _encode([(x - y) % p for x, y in zip(_decode(a, p, d), _decode(b, p, d))], p)

        def neg(a):
            return _encode([-x % p for x in _decode(a, p, d)], p)

    def sub_mul(v, f, b):
        return [sub(x, mul(f, y)) for x, y in zip(v, b)]

    def dot(u, v):
        s = 0
        for a, b in zip(u, v):
            if a and b:
                s = add(s, mul(a, b))
        return s

    def lanes(rows, k):
        # an inverse costs about two polynomial products here, so each lane
        # sets row <- a*row - f*prow for its pivot a
        prow = rows[k]
        A = prow[k]
        for row in rows[k + 1 :]:
            F = row[k]
            row[k + 1 :] = [
                [sub(mul(a, x), mul(f, y)) for a, f, x, y in zip(A, F, X, Y)]
                for X, Y in zip(row[k + 1 :], prow[k + 1 :])
            ]

    return CodeOps(add, sub, neg, mul, inv, sub_mul, dot, lanes)


class FieldSpec:
    """A concrete finite field GF(p^d) with canonical element encoding.

    Immutable after construction; all arithmetic helpers are pure, so a
    spec can be shared freely across threads.
    """

    __slots__ = ("p", "d", "modulus", "order", "_tables", "_ops", "_elements", "_hash")

    def __init__(self, p: int, d: int = 1, modulus: Sequence[int] | None = None):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"characteristic {p!r} is not prime")
        if p >= _MAX_PRIME:
            raise ValueError(f"characteristic {p} exceeds 2^31")
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"extension degree must be a positive integer, got {d!r}")
        if modulus is None and d == 1:
            modulus = (0, 1)
        elif modulus is None:
            key = p**d
            if key in _BUILTIN_MODULI and _BUILTIN_MODULI[key][0] == p:
                modulus = _BUILTIN_MODULI[key][1]
            else:
                raise ValueError(
                    f"no built-in modulus for GF({p}^{d}); supply an irreducible one"
                )
        # coefficients follow the rule of element literals: -p < c < p, and
        # a negative one means its negation
        coeffs = tuple(int(c) for c in modulus)
        if len(coeffs) != d + 1:
            raise ValueError(
                f"modulus must have degree {d} ({d + 1} coefficients), got {len(coeffs)}"
            )
        if not all(-p < c < p for c in coeffs):
            raise ValueError(f"modulus coefficients {coeffs} out of range (-{p}, {p})")
        modulus = tuple(c % p for c in coeffs)
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if d == 1:
            modulus = (0, 1)  # every monic linear modulus gives GF(p); codes ignore it
        elif not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "modulus", tuple(modulus))
        object.__setattr__(self, "order", p**d)
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_ops", None)
        object.__setattr__(self, "_elements", None)
        object.__setattr__(self, "_hash", hash((p, d, self.modulus)))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FieldSpec is immutable")

    @classmethod
    def from_order(cls, q: int) -> "FieldSpec":
        """Build the canonical field of order q (prime, or a built-in extension)."""
        if not isinstance(q, int) or q < 2:
            raise ValueError(f"field order must be an integer >= 2, got {q!r}")
        if _is_prime(q):
            return cls(q)
        if q in _BUILTIN_MODULI:
            p, modulus = _BUILTIN_MODULI[q]
            d = len(modulus) - 1
            return cls(p, d, modulus)
        p = _smallest_prime_factor(q)
        rest, d = q, 0
        while rest % p == 0:
            rest //= p
            d += 1
        if rest == 1:
            raise ValueError(
                f"no built-in modulus for GF({p}^{d}) = GF({q}); "
                f"supply one as '{p}^{d}:c0,...,c{d}'"
            )
        raise ValueError(f"{q} is not a prime power")

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.p == other.p and self.d == other.d and self.modulus == other.modulus

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.d == 1:
            return f"FieldSpec({self.p})"
        return f"FieldSpec({self.p}, {self.d}, {self.modulus})"

    def __str__(self):
        return f"GF({self.order})"

    def spec_string(self) -> str:
        """Round-trippable text form: 'p' or 'p^d:c0,...,cd'."""
        if self.d == 1:
            return str(self.p)
        return f"{self.p}^{self.d}:" + ",".join(str(c) for c in self.modulus)

    # -- element construction ------------------------------------------

    def element(self, value: "int | Sequence[int] | FieldElement") -> "FieldElement":
        """Element from a code in [0, Q) or coefficients in [0, p)."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            if not 0 <= value < self.order:
                raise ValueError(f"code {value} out of range for {self}")
            return FieldElement(self, value)
        coeffs = [int(c) for c in value]
        if len(coeffs) > self.d:
            raise ValueError(f"too many coefficients for {self}")
        if not all(0 <= c < self.p for c in coeffs):
            raise ValueError(f"coefficients {coeffs} out of range [0, {self.p}) for {self}")
        return FieldElement(self, self.encode(coeffs))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> "list[FieldElement]":
        """All Q elements in canonical (little-endian odometer) order."""
        cached = self._elements
        if cached is None:
            cached = [FieldElement(self, i) for i in range(self.order)]
            object.__setattr__(self, "_elements", cached)
        return cached

    # -- integer-code arithmetic (hot-path friendly) --------------------

    def encode(self, coeffs: Sequence[int]) -> int:
        return _encode(coeffs, self.p)

    def decode(self, code: int) -> tuple[int, ...]:
        return _decode(code, self.p, self.d)

    @property
    def tables(self) -> _LogTables | None:
        """Log tables of an extension field, or None (prime or too large)."""
        if self.d == 1 or self.order > _TABLE_LIMIT:
            return None
        if self._tables is not None:
            return self._tables
        q, p = self.order, self.p
        L = q - 1
        factors = _prime_factors(L)
        # constants have order dividing p-1, so the search starts at t
        g = next(
            c for c in range(p, q)
            if all(self._pow_code_raw(c, L // f) != 1 for f in factors)
        )
        powers = [1]
        for _ in range(L - 1):
            powers.append(_mul_codes(powers[-1], g, p, self.d, self.modulus))
        log = [3 * L] * q
        for i, c in enumerate(powers):
            log[c] = i
        exp = powers * 3 + [0] * (3 * L + 1)
        zech: list[int] = []
        if p != 2:
            # 1 + c only changes the constant digit of the code c
            one_plus = [log[c - c % p + (c + 1) % p] for c in powers]
            zech = list(range(-3 * L, -L)) + one_plus * 3 + [0] * (2 * L)
        object.__setattr__(self, "_tables", _LogTables(exp, log, zech))
        return self._tables

    @property
    def ops(self) -> CodeOps:
        """The field's code operations, bound on first use (see CodeOps).

        The closures capture p, the tables and the modulus, never the
        spec, so a spec that is dropped is freed at once.
        """
        if self._ops is None:
            if self.d == 1:
                ops = _prime_ops(self.p)
            elif self.tables is not None:
                ops = _table_ops(self.tables)
            else:
                ops = _poly_ops(self.p, self.d, self.modulus)
            object.__setattr__(self, "_ops", ops)
        return self._ops

    def _pow_code_raw(self, a: int, e: int) -> int:
        p, d, modulus = self.p, self.d, self.modulus
        out = 1
        while e > 0:
            if e & 1:
                out = _mul_codes(out, a, p, d, modulus)
            a = _mul_codes(a, a, p, d, modulus)
            e >>= 1
        return out

    # the code operations by their public names: each reads its closure in
    # ops, so `add = spec.add_code` before a loop pays no lookup inside it
    add_code = property(lambda self: self.ops.add)
    sub_code = property(lambda self: self.ops.sub)
    neg_code = property(lambda self: self.ops.neg)
    mul_code = property(lambda self: self.ops.mul)
    inv_code = property(lambda self: self.ops.inv)


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


@dataclass(frozen=True)
class FieldElement:
    """An element of a FieldSpec, stored as its code in [0, Q)."""

    spec: FieldSpec
    code: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.decode(self.code)

    def __bool__(self) -> bool:
        return self.code != 0

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        spec = _require_same_field(self, other)
        return FieldElement(spec, spec.ops.add(self.code, other.code))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        spec = _require_same_field(self, other)
        return FieldElement(spec, spec.ops.sub(self.code, other.code))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.ops.neg(self.code))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        spec = _require_same_field(self, other)
        return FieldElement(spec, spec.ops.mul(self.code, other.code))

    def __truediv__(self, other):
        # the fields are checked before the inverse, so a mixed-field
        # quotient raises ValueError even when the divisor is 0
        if not isinstance(other, FieldElement):
            return NotImplemented
        ops = _require_same_field(self, other).ops
        return FieldElement(self.spec, ops.mul(self.code, ops.inv(other.code)))

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} in {self.spec}>"


def _require_same_field(a: FieldElement, b: FieldElement) -> FieldSpec:
    if a.spec != b.spec:
        raise ValueError(f"elements from different fields: {a.spec} vs {b.spec}")
    return a.spec


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------


def format_element(a: FieldElement) -> str:
    if a.spec.d == 1:
        return str(a.code)
    terms = []
    for i, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("t" if c == 1 else f"{c}*t")
        else:
            terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return "+".join(terms) if terms else "0"


def _decimal(text: str, signed: bool = False) -> int:
    # ASCII digits only, after a '-' when signed: int() alone would also
    # take '5_0', digits of other scripts, a '+' and surrounding spaces
    digits = text[1:] if signed and text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _literal_coeff(spec: FieldSpec, text: str, literal: str) -> int:
    # an integer coefficient c with -p < c < p; negatives mean negation
    try:
        c = _decimal(text, signed=True)
    except ValueError as exc:
        raise ValueError(f"bad element literal {literal!r} for {spec}") from exc
    if not -spec.p < c < spec.p:
        raise ValueError(f"coefficient {c} out of range for {spec} in {literal!r}")
    return c % spec.p


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    """Parse the format produced by format_element."""
    text = text.strip()
    if not text:
        raise ValueError("empty element literal")
    if spec.d == 1:
        return spec.element(_literal_coeff(spec, text, text))
    coeffs = [0] * spec.d
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"bad element literal {text!r}")
        if "t" not in term:
            power = "0"
            coeff = term
        else:
            coeff_s, _, power_s = term.partition("t")
            coeff_s = coeff_s.strip()
            if coeff_s.endswith("*"):
                coeff_s = coeff_s[:-1].strip()
            coeff = coeff_s or "1"
            if power_s == "":
                power = "1"
            elif power_s.startswith("^"):
                power = power_s[1:]
            else:
                raise ValueError(f"bad term {term!r} in element literal {text!r}")
        try:
            power = _decimal(power)
        except ValueError as exc:
            raise ValueError(f"bad term {term!r} in element literal {text!r}") from exc
        if not 0 <= power < spec.d:
            raise ValueError(f"power t^{power} out of range for {spec}")
        coeffs[power] = (coeffs[power] + _literal_coeff(spec, coeff, text)) % spec.p
    return FieldElement(spec, spec.encode(coeffs))


def parse_field(text: str) -> FieldSpec:
    """Parse a field spec string: 'Q' or 'p^d:c0,c1,...,cd'."""
    text = text.strip()
    if ":" in text:
        head, _, tail = text.partition(":")
        base, caret, deg = head.partition("^")
        try:
            p = _decimal(base)
            d = _decimal(deg) if caret else 1
            coeffs = [_decimal(c, signed=True) for c in tail.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad field spec {text!r}") from exc
        return FieldSpec(p, d, coeffs)
    try:
        q = _decimal(text)
    except ValueError as exc:
        raise ValueError(f"bad field spec {text!r}") from exc
    return FieldSpec.from_order(q)
