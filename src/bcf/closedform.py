"""Closed-form polynomials of period-1 expansions and a brute-force
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
from math import floor, gcd

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
    |ci| <= height and |residual at value| < tol, sorted by residual.

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

    v1 = value
    v2 = v1 * v1
    v3 = v2 * v1
    span = floor(tol + Fraction(1, 2))  # |s + c0| < tol puts c0 within span of -round(s)
    found: list[CubicCandidate] = []
    for c3 in range(1, height + 1):
        t3 = c3 * v3
        for c2 in range(-height, height + 1):
            t32 = t3 + c2 * v2
            for c1 in range(-height, height + 1):
                s = t32 + c1 * v1
                r = -round(s)
                for c0 in range(r - span, r + span + 1):
                    if abs(c0) > height:
                        continue
                    residual = abs(s + c0)
                    if residual >= tol:
                        continue
                    if gcd(c3, abs(c2), abs(c1), abs(c0)) != 1:
                        continue
                    found.append(CubicCandidate((c3, c2, c1, c0), residual))
    found.sort(key=lambda c: (c.residual, c.coeffs))
    return found
