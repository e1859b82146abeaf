"""Exact arithmetic in a real algebraic number field.

A field is Q[x]/(p) for a monic integer polynomial p of degree >= 2,
pinned to one real root of p by an isolating rational interval.  Elements
are coordinate vectors in the power basis 1, theta, ..., theta^(d-1) with
rational entries.  Sign and floor decisions are made exactly: the root
interval is bisected until interval evaluation of the residue settles the
question, with a gcd-based exact test as the tie-breaker for values that
coincide with an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Iterable, Sequence

from ..errors import (
    MixedFields,
    NonIsolatingInterval,
    NonMonicModulus,
    ReducibleModulus,
    ZeroInverse,
)
from .polynomials import (
    IntPolynomial,
    bisect_once,
    eval_interval,
    qp_deg,
    qp_ext_gcd,
    qp_primitive_int,
    qp_trim,
    root_count,
)

_MAX_REFINE = 100_000
_EXACT_TEST_EVERY = 16


class NumberField:
    """Q[theta] for theta the unique root of ``modulus`` in (lo, hi)."""

    def __init__(self, modulus: IntPolynomial, lo, hi):
        if not isinstance(modulus, IntPolynomial):
            modulus = IntPolynomial.from_coeffs(modulus)
        if modulus.degree < 2 or not modulus.is_monic:
            raise NonMonicModulus(
                f"modulus must be monic of degree >= 2, got {modulus.pretty()}"
            )
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise NonIsolatingInterval(f"empty interval [{lo}, {hi}]")
        if modulus.sign_at(lo) * modulus.sign_at(hi) >= 0:
            raise NonIsolatingInterval(
                f"{modulus.pretty()} has no sign change on [{lo}, {hi}]"
            )
        roots = root_count(modulus, lo, hi)
        if roots != 1:
            raise NonIsolatingInterval(
                f"{modulus.pretty()} has {roots} distinct real roots in ({lo}, {hi})"
            )
        self.modulus = modulus
        self.root_interval = (lo, hi)

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def element(self, coords: Iterable) -> "FieldElement":
        vec = [Fraction(c) for c in coords]
        if len(vec) > self.degree:
            raise ValueError(
                f"residue length {len(vec)} exceeds field degree {self.degree}"
            )
        vec += [Fraction(0)] * (self.degree - len(vec))
        return FieldElement(self, tuple(vec))

    def theta(self) -> "FieldElement":
        return self.element([0, 1])

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.element([1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.modulus == other.modulus and self.root_interval == other.root_interval

    def __hash__(self) -> int:
        return hash((self.modulus.coeffs, self.root_interval))

    def __repr__(self) -> str:
        lo, hi = self.root_interval
        return f"NumberField({self.modulus.pretty()}, root in ({lo}, {hi}))"


class FieldElement:
    """Immutable element of a NumberField; supports +, -, *, / exactly."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[Fraction, ...]):
        self.field = field
        self.coords = coords

    # -- structure ---------------------------------------------------------

    def _check_field(self, other: "FieldElement"):
        if self.field != other.field:
            raise MixedFields(f"cannot combine {self.field!r} with {other.field!r}")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        return f"FieldElement({list(self.coords)})"

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            self._check_field(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coords, rhs.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a - b for a, b in zip(self.coords, rhs.coords))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, tuple(a * other for a in self.coords))
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_field(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                prod[i + j] += a * b
        return FieldElement(self.field, _reduce_mod(prod, self.field.modulus))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via extended Euclid against the modulus.

        A non-constant gcd means the modulus factors; the factor found is
        reported so the caller can fix the field.
        """
        if self.is_zero():
            raise ZeroInverse("inverse of zero field element")
        residue = qp_trim(self.coords)
        mod_poly = tuple(Fraction(c) for c in self.field.modulus.coeffs)
        g, u, _ = qp_ext_gcd(residue, mod_poly)
        if qp_deg(g) > 0:
            factor = qp_primitive_int(g)
            raise ReducibleModulus(
                f"modulus {self.field.modulus.pretty()} has factor {factor.pretty()}",
                factor=factor,
            )
        scale = 1 / g[0]
        inv = [c * scale for c in u]
        return self.field.element(inv)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroInverse("division by rational zero")
            return self * (1 / Fraction(other))
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_field(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = self.inverse()
            return inv if other == 1 else inv * other
        return NotImplemented

    # -- order decisions -----------------------------------------------------

    def interval(self, width) -> tuple[Fraction, Fraction]:
        """Exact rational bounds on the value, at most ``width`` apart."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        if self.is_rational():
            v = self.coords[0]
            return v, v
        lo, hi = self.field.root_interval
        for _ in range(_MAX_REFINE):
            a, b = eval_interval(self.coords, lo, hi)
            if b - a <= width:
                return a, b
            lo, hi = bisect_once(self.field.modulus, lo, hi)
        raise NonIsolatingInterval("interval refinement failed to converge")

    def sign(self) -> int:
        """Exact sign of the real value (-1, 0, or 1)."""
        if self.is_rational():
            v = self.coords[0]
            return (v > 0) - (v < 0)
        lo, hi = self.field.root_interval
        for step in range(_MAX_REFINE):
            a, b = eval_interval(self.coords, lo, hi)
            if a > 0:
                return 1
            if b < 0:
                return -1
            if step % _EXACT_TEST_EVERY == _EXACT_TEST_EVERY - 1:
                if self._vanishes_at_root(lo, hi):
                    return 0
            lo, hi = bisect_once(self.field.modulus, lo, hi)
        raise NonIsolatingInterval("sign refinement failed to converge")

    def floor(self) -> int:
        """Greatest integer <= value, decided by exact interval refinement."""
        if self.is_rational():
            return floor(self.coords[0])
        lo, hi = self.field.root_interval
        for step in range(_MAX_REFINE):
            a, b = eval_interval(self.coords, lo, hi)
            fa, fb = floor(a), floor(b)
            if fa == fb:
                return fa
            # The value may be exactly the straddled integer fb; only a
            # reducible modulus can make that true, so test it rarely.
            if fb - fa == 1 and step % _EXACT_TEST_EVERY == _EXACT_TEST_EVERY - 1:
                shifted = (self.coords[0] - fb,) + self.coords[1:]
                if FieldElement(self.field, shifted)._vanishes_at_root(lo, hi):
                    return fb
            lo, hi = bisect_once(self.field.modulus, lo, hi)
        raise NonIsolatingInterval("floor refinement failed to converge")

    __floor__ = floor

    def _vanishes_at_root(self, lo: Fraction, hi: Fraction) -> bool:
        # value == 0 iff theta is a common root of the residue and the
        # modulus, i.e. gcd has a sign change inside the isolating interval.
        residue = qp_trim(self.coords)
        if not residue:
            return True
        mod_poly = tuple(Fraction(c) for c in self.field.modulus.coeffs)
        g, _, _ = qp_ext_gcd(residue, mod_poly)
        if qp_deg(g) < 1:
            return False
        gpoly = qp_primitive_int(g)
        if gpoly.sign_at(lo) * gpoly.sign_at(hi) < 0:
            return True
        return gpoly.sign_at(lo) == 0 or gpoly.sign_at(hi) == 0

    def compare_fraction(self, q) -> int:
        """Sign of (value - q) for a rational q, computed exactly."""
        shifted = (self.coords[0] - Fraction(q),) + self.coords[1:]
        return FieldElement(self.field, shifted).sign()


def _reduce_mod(prod: Sequence[Fraction], modulus: IntPolynomial) -> tuple[Fraction, ...]:
    d = modulus.degree
    rem = list(prod)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        # modulus is monic: x^i == -sum_{j<d} m_j x^(i-d+j)
        for j in range(d):
            rem[i - d + j] -= c * modulus.coeffs[j]
        rem[i] = Fraction(0)
    rem = rem[:d]
    rem += [Fraction(0)] * (d - len(rem))
    return tuple(rem)

