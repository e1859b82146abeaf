"""Decimal literals with an explicit band of untrusted digits.

A guarded decimal is an exact rational midpoint plus an exact rational
radius: the true value is only known to lie in [value - radius,
value + radius].  Every decision that would depend on digits inside the
band is refused instead of guessed, because a single wrong floor corrupts
every later digit of an expansion.

There is no interval arithmetic here: the expansion steps integer linear
forms over the input box (``bounds``) and asks ``floor`` only to word a
refusal.  Parsed literals keep their mantissa/scale/guard fields; a value
built from bounds carries the interval only.
"""

from __future__ import annotations

import re
from decimal import Context, Decimal
from fractions import Fraction
from math import floor

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
        near = round(self.value)
        hint = self._extra_digits_to(near)
        raise AmbiguousFloor(
            f"value {_approx(self.value)} is within +/-{_approx(self.radius)} "
            f"of integer {near}; "
            + (
                f"about {hint} more trusted digit(s) may resolve it"
                if hint is not None
                else "the value may be exactly integral"
            ),
            extra_digits_hint=hint,
        )

    def _extra_digits_to(self, n: int) -> int | None:
        """1 + the least k >= 0 with 10^k >= radius / |value - n|, on
        integers (a float log10 overflows past 10^308); None at n itself."""
        gap = abs(self.value - n)
        if gap == 0:
            return None
        ratio, digits, power = -(-self.radius // gap), 1, 1  # ratio rounded up
        while power < ratio:
            power, digits = power * 10, digits + 1
        return digits


def _approx(q: Fraction) -> str:
    """``q`` to 12 significant digits, for messages of any bit size."""
    return str(Context(prec=12).divide(Decimal(q.numerator), Decimal(q.denominator)))
