"""Exact arithmetic in a real algebraic number field.

A field is Q[x]/(p) for a monic integer polynomial p of degree >= 2,
pinned to one real root of p by an isolating rational interval.  Elements
are coordinate vectors in the power basis 1, theta, ..., theta^(d-1) with
rational entries.  Products and inverses are the shared rational polynomial
helpers, reduced modulo p.

Each field keeps one isolating bracket of theta, the tightest found so
far, and is the package's only root refiner.  ``dyadic`` fixes theta to a
cell [t, t + 1] / 2^bits in one loop from the last cell: each sign of the
modulus moves one end of a grid bracket, at the integer Newton step when it
falls inside, at the midpoint otherwise.  It stores the cell back as the
bracket, so later decisions start where earlier ones stopped instead of at
the user's interval.  Every floor is decided by one call, ``ratio_floors``:
it tries the enclosures its caller passes, if any, and otherwise encloses
the integer rows on that cell by interval Horner; an element's enclosure
(``interval``) is read off one floor of its value times a power of 2.  The
field keeps no precision: each caller passes the one its floors start at
and gets back the one that decided them, with the enclosures that decided,
which an expansion steps with its rows and passes back at its next step.

A floor whose enclosure straddles one integer is settled by a gcd test,
because the value may be that integer.  Expansion states are keyed by their
image under theta -> n in Z/M, for an integer n and a divisor M of p(n)
(near 2^30 for small coefficients) that each field chooses once
(``_key_point``).  A residue whose value at n is prime to M is a unit, so
the key costs one inverse of a small integer; only a residue that shares a
factor with M needs the exact rational gcd.  The images mod M
(``key_images``) follow any integer row step, so a caller that steps them
with its rows keys each state without reading the rows.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import ceil, gcd, lcm, prod
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
    homogeneous_eval,
    qp_divmod,
    qp_ext_gcd,
    qp_mul,
    qp_primitive_int,
    qp_sub,
    root_count,
    scaled_box,
    sturm_chain,
)

FLOOR_BITS = 64  # the precision a floor starts at when its caller has none
_KEY_BITS = 30  # the key point n starts where n^d reaches 2^_KEY_BITS
_KEY_WINDOW = 64  # points tried for a prime M before the first acceptable one is kept
_SMALL_PRIMES = prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                      71, 73, 79, 83, 89, 97))  # the primes below 100
_PRIME_LIMIT = 4_759_123_141  # the strong test to bases 2, 7, 61 is exact below this


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
        if len(chain[-1]) > 1:
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
        self._chain = chain
        self._same = {}  # another field's root interval -> whether it holds this root
        self.bracket = (lo, hi, sign_lo)  # tightest known; sign of modulus at lo
        self._dmodulus = tuple(k * c for k, c in enumerate(modulus.coeffs))[1:]

    def dyadic(self, bits: int) -> int:
        """An integer t with theta in [t, t + 1] / 2^bits.

        The bracket's ends, rounded out to the grid of 2^-bits, are points a
        and b left and right of theta.  While they are more than one cell
        apart, the modulus's sign at a point strictly between them moves one
        of them there: the integer Newton step from the last point when it
        lands strictly inside (for the first bits.bit_length() + 4 steps),
        the midpoint otherwise.  The cell [a, b] is stored back as the
        bracket, cut to it; a point where the modulus vanishes is theta,
        stored with the quarter points around it."""
        lo, hi, s_lo = self.bracket
        a = (lo.numerator << bits) // lo.denominator
        b = -(-(hi.numerator << bits) // hi.denominator)
        if b - a == 1:  # the bracket is in one cell already
            return a
        p, dp, scale = self.modulus.coeffs, self._dmodulus, 1 << bits
        x, steps = (a + b) // 2, bits.bit_length() + 4
        while True:
            v = homogeneous_eval(p, x, scale)
            if not v:  # theta is x / 2^bits: store the quarter points around it
                self.bracket = (max(lo, Fraction(2 * x - 1, 2 * scale)),
                                min(hi, Fraction(2 * x + 1, 2 * scale)), s_lo)
                return x
            left = (v > 0) == (s_lo > 0)
            a, b = (x, b) if left else (a, x)
            if b - a == 1:
                break
            if steps:  # the Newton step from x; a 0 step moves one point toward theta
                steps -= 1
                x -= v // (homogeneous_eval(dp, x, scale) or 1) or (-1 if left else 1)
            if not a < x < b:  # x is still a or b when no step was taken
                x = (a + b) // 2
        self.bracket = (max(lo, Fraction(a, scale)), min(hi, Fraction(b, scale)), s_lo)
        return a

    def ratio_floors(
        self, rows, bits: int = FLOOR_BITS, boxes=None
    ) -> tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]]:
        """The floor of v_k(theta) / v_0(theta) for each k >= 1 of integer
        rows (v_0, ..., v_m), v_0(theta) > 0, the precision that decided and
        the enclosures that decided: integers [lo, hi] holding each row's
        value at theta, all on one scale (``scaled_box``).

        ``boxes``, such enclosures that the caller has, are tried first:
        their floors stand when lo_0 > 0 and both ends of every ratio floor
        alike.  Otherwise the rows are enclosed afresh, one at a time, on the
        dyadic cell of theta at ``bits``, doubled until every floor is
        certain; a fresh ratio that straddles one integer c is c exactly
        when v_k - c*v_0 vanishes at theta."""
        den = rows[0]
        while True:
            fresh = boxes is None
            if fresh:
                t = self.dyadic(bits)
                boxes = [scaled_box(den, t, bits)]
            (lo0, hi0), floors = boxes[0], []
            if lo0 > 0:
                for k, num in enumerate(rows[1:], 1):
                    if fresh:
                        boxes.append(scaled_box(num, t, bits))
                    lo, hi = boxes[k]
                    a, b = lo // (hi0 if lo >= 0 else lo0), hi // (lo0 if hi >= 0 else hi0)
                    if a != b and not (
                        fresh and b == a + 1
                        and self._vanishes([n - b * e for n, e in zip(num, den)])
                    ):
                        break
                    floors.append(b)
                else:
                    return tuple(floors), bits, tuple(boxes)
            if fresh:
                bits *= 2
            boxes = None

    def _vanishes(self, coords) -> bool:
        """Whether an integer residue is zero at theta.  One prime to M at the
        key point is nonzero there (see ``ratio_key``), so only the others
        need the exact test."""
        m, (w,) = self.key_images([coords])
        if gcd(w, m) == 1:
            return False
        # Zero at theta iff theta is a common root of the residue and the
        # modulus, i.e. their gcd changes sign across the isolating bracket
        # (whose ends are never roots of the modulus, so of the gcd; a
        # constant gcd changes sign nowhere).
        g = qp_primitive_int(qp_ext_gcd(tuple(map(Fraction, coords)), self.modulus.coeffs)[0])
        lo, hi, _ = self.bracket
        return g.sign_at(lo) * g.sign_at(hi) < 0

    @cached_property
    def _key_powers(self) -> tuple[int, tuple[int, ...]]:
        """(M, (n^i mod M for each coordinate i)) at this field's key point."""
        n, m, _ = _key_point(self.modulus.coeffs)
        return m, tuple(pow(n, i, m) for i in range(self.degree))

    def key_images(self, rows) -> tuple[int, tuple[int, ...]]:
        """(M, the images w_k = v_k(n) mod M of integer residues v_k at the
        key point n).  theta -> n is a ring map, so rows stepped by integers
        have images stepped by the same integers mod M."""
        m, powers = self._key_powers
        return m, tuple(sum(c * q for c, q in zip(v, powers)) % m for v in rows)

    def ratio_key(self, rows, images=None) -> tuple | None:
        """A hashable key of the point (v_0 : v_1 : ... : v_m) of integer
        residues, or None when v_0 has no image to divide by: the values
        w_k = v_k(n) mod M at the key point and (w_1/w_0, ..., w_m/w_0) mod M.
        ``images`` are the rows' ``key_images`` when the caller has them; the
        rows are read only when w_0 shares a prime with M.  Equal points
        share a key; different points may too.  A residue v_0 with no key is
        still proven a unit, or ``ReducibleModulus`` raised.

        Why a w_0 prime to M proves v_0 a unit: M divides p(n), so theta -> n
        is a ring map Z[theta] -> Z/M, and cross-multiplying a_k b_0 = b_k a_0
        (mod p) shows equal points have equal keys wherever w_0 is a unit mod
        M.  If v_0 were a zero divisor, some monic integer factor g of p would
        divide v_0, so g(n) would divide both p(n) = S*M and v_0(n).  Every
        root of g has |root| < H + 1 (Cauchy's bound), hence |g(n)| >
        n - H - 1 > S, so g(n) does not divide S, the part of p(n) made of
        primes below 100, and shares a prime with M, which is then a factor
        of w_0 as well."""
        m, images = self.key_images(rows) if images is None else (self._key_powers[0], images)
        try:
            inv = pow(images[0], -1, m)
        except ValueError:  # w_0 shares a prime with M
            self._unit_inverse(rows[0])
            return None
        return tuple([w * inv % m for w in images[1:]])

    def same_point(self, a, b) -> bool:
        """Whether integer rows a and b, each with a unit v_0, name the same
        point: a_k * b_0 == b_k * a_0 modulo the modulus for every k."""
        p = self.modulus.coeffs
        return all(
            not qp_divmod(qp_sub(qp_mul(ak, b[0]), qp_mul(bk, a[0])), p)[1]
            for ak, bk in zip(a[1:], b[1:])
        )

    def _unit_inverse(self, coords) -> tuple[Fraction, ...]:
        """The inverse of a residue by the exact extended gcd with the modulus;
        a gcd of positive degree is a factor of the modulus, reported so the
        caller can fix the field."""
        g, u = qp_ext_gcd(tuple(map(Fraction, coords)), self.modulus.coeffs)
        if len(g) > 1:
            factor = qp_primitive_int(g)
            raise ReducibleModulus(
                f"modulus {self.modulus.pretty()} has factor {factor.pretty()}",
                factor=factor,
            )
        return tuple(c / g[0] for c in u)

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
        if self.modulus != other.modulus:
            return False
        if self.root_interval == other.root_interval:
            return True
        # Two isolating intervals name one root iff their intersection
        # holds a root.
        if other.root_interval not in self._same:
            lo = max(self.root_interval[0], other.root_interval[0])
            hi = min(self.root_interval[1], other.root_interval[1])
            self._same[other.root_interval] = lo < hi and root_count(self._chain, lo, hi) >= 1
        return self._same[other.root_interval]

    def __hash__(self) -> int:
        return hash(self.modulus.coeffs)

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
        """Residue equality: value equality only under an irreducible
        modulus, for a reducible one has nonzero residues of value zero."""
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
        return self.field.element(qp_divmod(prod, self.field.modulus.coeffs)[1])

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

        A non-constant gcd means the modulus factors: ``ReducibleModulus``
        reports the factor found.
        """
        if self.is_zero():
            raise ZeroInverse("inverse of zero field element")
        return self.field.element(self.field._unit_inverse(self.coords))

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

    # -- order decisions -----------------------------------------------------

    def interval(self, width) -> tuple[Fraction, Fraction]:
        """Exact rational bounds on the value, at most ``width`` apart: the
        dyadic cell (n / 2^k, (n + 1) / 2^k) for the least k >= 0 with
        2^-k <= width and n the floor of the value times 2^k."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        k = (ceil(1 / width) - 1).bit_length()
        n = (self * (1 << k)).floor()
        return Fraction(n, 1 << k), Fraction(n + 1, 1 << k)

    def floor(self) -> int:
        """Greatest integer <= value: ``ratio_floors`` of the residue scaled
        to integers over that scale, from ``FLOOR_BITS``."""
        return self.field.ratio_floors(integer_rows([self.coords]))[0][0]

    __floor__ = floor


def integer_rows(vectors) -> tuple[tuple[int, ...], ...]:
    """D*(e_0, v_1, ..., v_m) as integer tuples, for rational vectors v_k of
    one length, e_0 = (1, 0, ..., 0) and D the least common denominator of
    their entries: the rows of the point (1 : v_1 : ... : v_m)."""
    d = lcm(*(c.denominator for v in vectors for c in v))
    one = (d,) + (0,) * (len(vectors[0]) - 1)
    return (one, *(tuple(c.numerator * (d // c.denominator) for c in v) for v in vectors))


def _key_point(coeffs) -> tuple[int, int, bool]:
    """(n, M, whether M is proven prime) for a monic integer polynomial p of
    degree d: an integer n >= H + 3, H the largest |coefficient| below the
    lead, and the divisor M of |p(n)| left when S, its part made of primes
    below 100, is taken out, with S < n - H - 1 (``ratio_key`` needs it).

    The search starts where n^d reaches 2^_KEY_BITS and takes the first such
    n whose M is prime within _KEY_WINDOW points, else the first such n.  A
    prime M only makes residues that share a factor with it rare; nothing
    depends on it."""
    d, h = len(coeffs) - 1, max(abs(c) for c in coeffs[:-1])
    n = max(h + 3, ceil(2 ** (_KEY_BITS / d)))
    end, first = n + _KEY_WINDOW, None
    while True:
        m = abs(homogeneous_eval(coeffs, n, 1))
        s, g = 1, gcd(m, _SMALL_PRIMES)
        while g > 1:
            m, s = m // g, s * g
            g = gcd(m, g)
        if s < n - h - 1:
            if _is_prime(m):
                return n, m, True
            first = first or (n, m, False)
        # p(n) grows with n, so a later M seldom falls below the limit again.
        if first and (n + 1 >= end or m >= _PRIME_LIMIT):
            return first
        n += 1
        if n >= end:  # nothing acceptable in a window: move out where S fits
            n *= 2
            end = n + _KEY_WINDOW


def _is_prime(m: int) -> bool:
    """Whether m > 61 is prime by the strong test to bases 2, 7 and 61, exact
    below _PRIME_LIMIT (Jaeschke 1993); False at and above it."""
    if m >= _PRIME_LIMIT or not m & 1:
        return False
    s = ((m - 1) & (1 - m)).bit_length() - 1
    for a in (2, 7, 61):
        x = pow(a, (m - 1) >> s, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True
