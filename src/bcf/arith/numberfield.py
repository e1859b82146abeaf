"""Exact arithmetic in a real algebraic number field.

A field is Q[x]/(p) for a monic integer polynomial p of degree >= 2,
pinned to one real root of p by an isolating rational interval.  Elements
are coordinate vectors in the power basis 1, theta, ..., theta^(d-1) with
rational entries.  Products and inverses are the shared rational polynomial
helpers, reduced modulo p.

Each field keeps one isolating bracket of theta, the tightest found so
far, and owns the package's only root-refinement loop: floors and
enclosures evaluate the residue on the bracket by interval Horner and
bisect it, storing every bisection back on the field, until the enclosure
settles the question.
The bracket only ever shrinks, so later decisions start where earlier ones
stopped instead of at the user's interval.  A floor whose enclosure keeps
straddling an integer is settled by an exact gcd test, because the value
may be that integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Iterable

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
    qp_divmod,
    qp_ext_gcd,
    qp_mul,
    qp_primitive_int,
    qp_trim,
    root_count,
    sturm_chain,
)

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
        chain = sturm_chain(modulus)
        if qp_deg(chain[-1]) > 0:
            factor = qp_primitive_int(chain[-1])
            raise ReducibleModulus(
                f"modulus {modulus.pretty()} has repeated factor {factor.pretty()}",
                factor=factor,
            )
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise NonIsolatingInterval(f"empty interval [{lo}, {hi}]")
        sign_lo = modulus.sign_at(lo)
        if sign_lo * modulus.sign_at(hi) >= 0:
            raise NonIsolatingInterval(
                f"{modulus.pretty()} has no sign change on [{lo}, {hi}]"
            )
        roots = root_count(chain, lo, hi)
        if roots != 1:
            raise NonIsolatingInterval(
                f"{modulus.pretty()} has {roots} distinct real roots in ({lo}, {hi})"
            )
        self.modulus = modulus
        self.root_interval = (lo, hi)
        self.bracket = (lo, hi, sign_lo)  # tightest known; sign of modulus at lo
        self._qmodulus = chain[0]  # the modulus as rationals, for residues

    def brackets(self):
        """Yield isolating brackets ``(lo, hi)`` of theta without end, the
        first one the field's current bracket and each next one a bisection
        of the bracket then current, which is stored back on the field.

        Bisecting an isolating bracket cannot fail and at least halves it,
        so every consumer that waits for a narrow enough bracket ends."""
        while True:
            yield self.bracket[:2]
            # Read afresh: a decision interleaved with this one may have
            # tightened the bracket meanwhile.
            self.bracket = bisect_once(self.modulus, *self.bracket)

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

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return not any(self.coords[1:]) and self.coords[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        if not any(self.coords[1:]):
            return hash(self.coords[0])  # equal to that rational
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
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        prod = qp_mul(self.coords, rhs.coords)
        return self.field.element(qp_divmod(prod, self.field._qmodulus)[1])

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
        g, u = self._gcd_with_modulus()
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
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs * self.inverse()

    def _gcd_with_modulus(self):
        """(g, u): g = gcd(residue, modulus) and u * residue == g (mod modulus)."""
        return qp_ext_gcd(self.coords, self.field._qmodulus)

    # -- order decisions -----------------------------------------------------

    def _enclosures(self):
        """Yield ``(a, b, lo, hi)``: the value lies in [a, b] because theta
        lies in (lo, hi), one per bracket of the field; a rational element
        yields ``a == b`` at once."""
        coords = qp_trim(self.coords)
        for lo, hi in self.field.brackets():
            a, b = eval_interval(coords, lo, hi)
            yield a, b, lo, hi

    def interval(self, width) -> tuple[Fraction, Fraction]:
        """Exact rational bounds on the value, at most ``width`` apart."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        for a, b, _, _ in self._enclosures():
            if b - a <= width:
                return a, b

    def floor(self) -> int:
        """Greatest integer <= value, decided by exact interval refinement."""
        for step, (a, b, lo, hi) in enumerate(self._enclosures()):
            fa, fb = floor(a), floor(b)
            if fa == fb:
                return fa
            # The value may be exactly the straddled integer fb; only a
            # reducible modulus can make that true, so test it rarely.
            if fb - fa == 1 and step % _EXACT_TEST_EVERY == _EXACT_TEST_EVERY - 1:
                if (self - fb)._vanishes_at_root(lo, hi):
                    return fb

    __floor__ = floor

    def _vanishes_at_root(self, lo: Fraction, hi: Fraction) -> bool:
        # value == 0 iff theta is a common root of the residue and the
        # modulus, i.e. their gcd changes sign across the isolating bracket
        # (whose ends are never roots of the modulus, so of the gcd; a
        # constant gcd changes sign nowhere).
        gpoly = qp_primitive_int(self._gcd_with_modulus()[0])
        return gpoly.sign_at(lo) * gpoly.sign_at(hi) < 0
