"""Decimal literals with an explicit band of untrusted digits.

A guarded decimal is an exact rational midpoint plus an exact rational
radius: the true value is only known to lie in [value - radius,
value + radius].  Every decision that would depend on digits inside the
band is refused instead of guessed, because a single wrong floor corrupts
every later digit of an expansion.

Parsed literals keep their mantissa/scale/guard fields; arithmetic results
carry the propagated interval only.
"""

from __future__ import annotations

import re
from decimal import Context, Decimal
from fractions import Fraction
from math import ceil, floor, log10

from ..errors import AmbiguousFloor

_LITERAL_RE = re.compile(r"^[+-]?[0-9]+(\.[0-9]+)?$")


class GuardedDecimal:
    __slots__ = ("value", "radius", "mantissa", "scale", "guard_digits")

    def __init__(self, value, radius, mantissa=None, scale=None, guard_digits=None):
        self.value = Fraction(value)
        self.radius = Fraction(radius)
        if self.radius <= 0:
            raise ValueError("guard radius must be positive")
        self.mantissa = mantissa
        self.scale = scale
        self.guard_digits = guard_digits

    @classmethod
    def from_parts(cls, mantissa: int, scale: int, guard_digits: int) -> "GuardedDecimal":
        if guard_digits < 1:
            raise ValueError("guard_digits must be >= 1")
        value = Fraction(mantissa, 10**scale)
        radius = Fraction(10**guard_digits, 10**scale)
        return cls(value, radius, mantissa=mantissa, scale=scale, guard_digits=guard_digits)

    @classmethod
    def from_literal(cls, text: str, guard_digits: int = 1) -> "GuardedDecimal":
        if not _LITERAL_RE.match(text):
            raise ValueError(f"not a decimal literal: {text!r}")
        sign = -1 if text.startswith("-") else 1
        body = text.lstrip("+-")
        if "." in body:
            intpart, fracpart = body.split(".")
        else:
            intpart, fracpart = body, ""
        mantissa = sign * int(intpart + fracpart or "0")
        return cls.from_parts(mantissa, len(fracpart), guard_digits)

    def bounds(self) -> tuple[Fraction, Fraction]:
        return self.value - self.radius, self.value + self.radius

    def __repr__(self) -> str:
        return f"GuardedDecimal({self.value} +/- {self.radius})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, GuardedDecimal):
            return NotImplemented
        return self.value == other.value and self.radius == other.radius

    def __hash__(self) -> int:
        return hash((self.value, self.radius))

    # -- guarded decisions ---------------------------------------------------

    def floor(self) -> int:
        lo, hi = self.bounds()
        flo, fhi = floor(lo), floor(hi)
        if flo == fhi:
            return flo
        hint = self._extra_digits_to(fhi)
        raise AmbiguousFloor(
            f"value {_approx(self.value)} is within +/-{_approx(self.radius)} "
            f"of integer {fhi}; "
            + (
                f"supply at least {hint} more trusted digit(s)"
                if hint is not None
                else "the value may be exactly integral"
            ),
            extra_digits_hint=hint,
        )

    __floor__ = floor

    def _extra_digits_to(self, n: int) -> int | None:
        gap = abs(self.value - n)
        if gap == 0:
            return None
        return max(1, ceil(log10(self.radius / gap)) + 1)

    # -- interval arithmetic ---------------------------------------------------

    def __sub__(self, n) -> "GuardedDecimal":
        if not isinstance(n, (int, Fraction)):
            return NotImplemented
        return GuardedDecimal(self.value - n, self.radius)

    def __rtruediv__(self, q) -> "GuardedDecimal":
        if not isinstance(q, (int, Fraction)):
            return NotImplemented
        lo, hi = self.bounds()
        if lo <= 0 <= hi:
            raise AmbiguousFloor(
                f"cannot invert {_approx(self.value)} +/- {_approx(self.radius)}: "
                "the guard band reaches zero; supply more trusted digits"
            )
        ends = (q / lo, q / hi)
        return _from_bounds(min(ends), max(ends))

    def __mul__(self, other) -> "GuardedDecimal":
        if not isinstance(other, GuardedDecimal):
            return NotImplemented
        a, b = self.bounds()
        c, d = other.bounds()
        products = (a * c, a * d, b * c, b * d)
        return _from_bounds(min(products), max(products))


def _from_bounds(lo: Fraction, hi: Fraction) -> GuardedDecimal:
    # Round an endpoint outward to the dyadic grid of step 2^-k <= width/2^64
    # when its denominator is finer than that grid.  Without this, exact
    # endpoints grow ~1.6x in bits per step at order >= 2; with it they stay
    # near 64 bits past the band's own scale, and the band widens by at most
    # 2^-63 of its width per operation.
    width = hi - lo
    k = max(0, 65 + width.denominator.bit_length() - width.numerator.bit_length())
    if lo.denominator >> k:
        lo = Fraction(floor(lo * (1 << k)), 1 << k)
    if hi.denominator >> k:
        hi = Fraction(ceil(hi * (1 << k)), 1 << k)
    return GuardedDecimal((lo + hi) / 2, (hi - lo) / 2)


def _approx(q: Fraction) -> str:
    """``q`` to 12 significant digits, for messages of any bit size."""
    return str(Context(prec=12).divide(Decimal(q.numerator), Decimal(q.denominator)))
