"""Closed-form polynomials of period-1 expansions and an exhaustive
integer-cubic probe.

The constant digit pair (a, b) with a >= 1 has as convergent limit the
pair (alpha, beta = b + 1/alpha), with alpha the root > 1 of

    alpha^3 = a*alpha^2 + b*alpha + 1
    beta^3  = 2b*beta^2 - (a + b^2)*beta + (ab + 1).

That pair expands back to the constant digits (a, b) exactly when b <= a
(checked for a <= 6, b <= 8); for b > a, floor(alpha) exceeds a.  The
alpha cubic is reducible exactly when b = a + 2: then x + 1 divides it.
Its other roots are negative or complex, so (a, a + b + 1) isolates alpha.
The all-ones spec of order m fixes x^(m+1) = x^m + ... + x + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith.polynomials import IntPolynomial
from .errors import PrecisionTooLow

# value_error must undercut tol by this factor: three extra decimal digits.
_PRECISION_MARGIN = Fraction(1, 1000)


def _check_params(a: int, b: int):
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")


def alpha_cubic(a: int, b: int) -> IntPolynomial:
    """x^3 - a*x^2 - b*x - 1."""
    _check_params(a, b)
    return IntPolynomial((-1, -b, -a, 1))


def beta_cubic(a: int, b: int) -> IntPolynomial:
    """x^3 - 2b*x^2 + (a + b^2)*x - (ab + 1)."""
    _check_params(a, b)
    return IntPolynomial((-(a * b + 1), a + b * b, -2 * b, 1))


def allones_poly(m: int) -> IntPolynomial:
    """x^(m+1) - x^m - ... - x - 1, the order-m all-ones closed form."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return IntPolynomial((-1,) * (m + 1) + (1,))


@dataclass(frozen=True)
class CubicCandidate:
    coeffs: tuple[int, int, int, int]  # (c3, c2, c1, c0), descending powers
    residual: Fraction


def cubic_hunt(
    value,
    height: int,
    tol,
    value_error=Fraction(0),
) -> list[CubicCandidate]:
    """All primitive integer cubics c3*x^3+c2*x^2+c1*x+c0 with c3 >= 1,
    |ci| <= height and |residual at value| < tol, sorted by residual.  The
    search is exhaustive and exact on integers.  It scans per (c3, c2) only
    the c1 window, and per c1 only the c0 band, that a hit provably needs, so
    its work is bounded by height, whatever tol is.

    ``value_error`` is the caller's bound on |value - true|; it must
    undercut tol by three decimal digits or the hunt refuses (a residual
    below tol would then say nothing about the true value).
    """
    value = Fraction(value)
    tol = Fraction(tol)
    value_error = Fraction(value_error)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 1 <= height <= 50:
        raise ValueError("height must be between 1 and 50")
    if value_error < 0:
        raise ValueError("value_error must be >= 0")
    if value_error > tol * _PRECISION_MARGIN:
        raise PrecisionTooLow(
            f"value is only known to +/-{value_error}; the hunt at tol {tol} "
            f"needs +/-{tol * _PRECISION_MARGIN} (three extra decimal digits)"
        )

    # With value = p/q, s = c3*p^3 + c2*p^2*q + c1*p*q^2 is q^3*(c3*x^3 + c2*x^2 + c1*x)
    # and |s/q^3 + c0| < tol reads |s + c0*q^3| <= L = ceil(tol*q^3) - 1 on integers.
    p, q = value.numerator, value.denominator
    v3, v2, v1, qq = p * p * p, p * p * q, p * q * q, q * q * q
    big, small = divmod(-(-tol.numerator * qq // tol.denominator) - 1, qq)  # L = big*q^3 + small
    # A hit has |c0| <= height and |s + c0*q^3| <= L < (big + 1)*q^3, so |s| < bound.  With
    # s = t + c1*v1 that is an open c1 window around -t/v1; any c1 outside it misses for
    # every |c0| <= height, so the window skips no hit.  v1 = 0 keeps every c1.
    bound = (height + big + 1) * qq
    sign, d = (1, v1) if v1 >= 0 else (-1, -v1)
    # Along a c1 window s = r*q^3 + rem (0 <= rem < q^3) steps by v1 with one carry, and
    # |s + c0*q^3| = |(c0 + r)*q^3 + rem| <= L exactly for c0 + r in the band
    # [-big - (rem >= q^3 - small), big - (rem > small)], cut to |c0| <= height whatever
    # tol is.  With big = 0 it is empty for small < rem < q^3 - small: skip that c1 at once.
    dr, drem = divmod(v1, qq)
    near = qq - small
    found: list[CubicCandidate] = []
    for c3 in range(1, height + 1):
        for c2 in range(-height, height + 1):
            t = c3 * v3 + c2 * v2
            u = sign * t
            lo = max(-height, (-bound - u) // d + 1) if d else -height
            hi = min(height, -((u - bound) // d) - 1) if d else height
            r, rem = divmod(t + lo * v1, qq)
            for c1 in range(lo, hi + 1):
                if big or rem <= small or rem >= near:
                    first = max(-height, -big - (rem >= near) - r)
                    for c0 in range(first, min(height, big - (rem > small) - r) + 1):
                        if gcd(c3, c2, c1, c0) == 1:
                            residual = Fraction(abs(rem + (c0 + r) * qq), qq)
                            found.append(CubicCandidate((c3, c2, c1, c0), residual))
                r, rem = r + dr, rem + drem
                if rem >= qq:
                    r, rem = r + 1, rem - qq
    found.sort(key=lambda c: (c.residual, c.coeffs))
    return found
