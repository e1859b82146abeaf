"""Integer polynomials: exact evaluation, interval evaluation on a dyadic
cell, and Sturm root counts.

The value at a point p/q is the integer q^n * c(p/q), its denominator
cleared, never a float: a floor or sign decision made here is a proof, not
an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate polynomial with integer coefficients, ascending degree.

    ``coeffs[0]`` is the constant term.  Canonical form strips trailing
    zeros; the zero polynomial has ``coeffs == ()``.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        for c in self.coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        trimmed = qp_trim(self.coeffs)
        if trimmed != self.coeffs:
            object.__setattr__(self, "coeffs", trimmed)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        return cls(tuple(int(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        v = homogeneous_eval(self.coeffs, x.numerator, x.denominator)
        return Fraction(v, x.denominator ** max(self.degree, 0))

    def sign_at(self, x) -> int:
        x = Fraction(x)
        v = homogeneous_eval(self.coeffs, x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.pretty()


def homogeneous_eval(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^n * c(p / q) for integer coefficients and q >= 1, n = len(coeffs) - 1:
    Horner on the homogenised polynomial, so the sign is that of c(p / q)."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * scale
        scale *= q
    return acc


def scaled_box(coeffs: Sequence[int], t: int, bits: int) -> tuple[int, int]:
    """Integers [lo, hi] holding 2^(bits*n) * c(X / 2^bits) for every X in
    [t, t + 1], n = len(coeffs) - 1: interval Horner on integers.  A cell
    left of 0 is boxed as c(-Y) on [-t - 1, -t], odd coefficients negated;
    each Horner sum of c(-Y) is +- that of c(X), so the box is the same."""
    if t < 0:
        coeffs, t = [-c if k & 1 else c for k, c in enumerate(coeffs)], -t - 1
    lo = hi = coeffs[-1]
    shift = 0
    for c in reversed(coeffs[:-1]):
        shift += bits
        c <<= shift
        a, b = lo * t, hi * t  # t >= 0: at t + 1 each product gains lo or hi
        lo, hi = (a if lo >= 0 else a + lo) + c, (b + hi if hi >= 0 else b) + c
    return lo, hi


def sturm_chain(poly: IntPolynomial) -> list[tuple[int, ...]]:
    """Sturm sequence p, p', -rem(p, p'), ... of a non-constant ``poly`` on
    integers: each remainder is the pseudo-remainder of |lead|^k times the
    dividend, k its degree drop plus one, divided by its content.  Each
    element is thus a positive multiple of the rational chain's, which keeps
    every sign.

    It stops at the last nonzero remainder, which is gcd(p, p') up to a
    rational unit: of positive degree exactly when p has a repeated factor.
    """
    chain = [poly.coeffs, tuple(k * c for k, c in enumerate(poly.coeffs))[1:]]
    while True:
        rem, b = list(chain[-2]), chain[-1]
        db, lead = len(b) - 1, abs(b[-1])
        sign = 1 if b[-1] > 0 else -1
        for shift in reversed(range(len(rem) - db)):
            factor = sign * rem[shift + db]  # lead * factor == |lead| * rem[shift + db]
            rem = [c * lead for c in rem]
            for j, c in enumerate(b):
                rem[shift + j] -= factor * c
        rem = qp_trim(rem[:db])
        if not rem:
            return chain
        content = gcd(*rem)
        chain.append(tuple(-c // content for c in rem))


def root_count(chain: Sequence[Sequence[int]], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of ``chain[0]`` in (lo, hi], by Sturm's theorem."""

    def variations(x: Fraction) -> int:
        values = (homogeneous_eval(c, x.numerator, x.denominator) for c in chain)
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


# Rational-coefficient polynomial helpers (ascending tuples of Fractions).
# These back the number-field arithmetic; they are not a public surface.
# qp_mul, qp_sub, qp_divmod by a monic divisor and qp_trim keep integer
# coefficients integers; any other divisor makes them Fractions.

def qp_trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def qp_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)  # stays in the coefficients' own type
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return qp_trim(out)


def qp_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [0] * max(len(a), len(b))  # stays in the coefficients' own type
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return qp_trim(out)


def qp_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    b = qp_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(qp_trim(a))
    db = len(b) - 1
    lead = Fraction(b[-1])
    # Only the nonzero terms below the lead act; a monic divisor divides nothing.
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    quo = [0] * max(len(rem) - db, 0)
    for shift in reversed(range(len(quo))):
        factor = rem[shift + db] if lead == 1 else rem[shift + db] / lead
        quo[shift] = factor
        if factor:
            for j, c in terms:
                rem[shift + j] -= factor * c
    return qp_trim(quo), qp_trim(rem[:db])


def qp_ext_gcd(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Extended Euclid over Q[x]: returns (g, u) with g = gcd(a, b) and
    u*a == g (mod b)."""
    old_r, r = qp_trim(a), qp_trim(b)
    old_u, u = (Fraction(1),), ()
    while r:
        q, rem = qp_divmod(old_r, r)
        old_r, r = r, rem
        old_u, u = u, qp_sub(old_u, qp_mul(q, u))
    return old_r, old_u


def qp_primitive_int(coeffs: Sequence[Fraction]) -> IntPolynomial:
    """Primitive integer polynomial with positive leading coefficient."""
    coeffs = qp_trim(coeffs)
    if not coeffs:
        return IntPolynomial(())
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = gcd(*(abs(c) for c in ints))
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPolynomial(tuple(ints))
