import contextlib
import functools
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bcf.arith import IntPolynomial, NumberField, numberfield
from bcf.arith.polynomials import qp_divmod, qp_mul, root_count, sturm_chain
from bcf.errors import (
    MixedFields,
    NonIsolatingInterval,
    NonMonicModulus,
    ReducibleModulus,
    ZeroInverse,
)
from bcf.expansion import _row_step as row_step
from bcf.expansion import expand

SQRT2 = NumberField(IntPolynomial((-2, 0, 1)), 1, 2)
GOLDEN = NumberField(IntPolynomial((-1, -1, 1)), 1, 2)
TRIB = NumberField(IntPolynomial((-1, -1, -1, 1)), 1, 2)
CBRT2 = NumberField(IntPolynomial((-2, 0, 0, 1)), 1, 2)
QUARTIC = NumberField(IntPolynomial((-2, 0, 0, 0, 1)), 1, 2)


def frac(*args):
    return Fraction(*args)


def test_construction_rejects_non_monic_and_low_degree():
    with pytest.raises(NonMonicModulus):
        NumberField(IntPolynomial((-2, 0, 2)), 1, 2)
    with pytest.raises(NonMonicModulus):
        NumberField(IntPolynomial((-2, 1)), 1, 3)


def test_construction_rejects_signless_interval():
    with pytest.raises(NonIsolatingInterval):
        NumberField(IntPolynomial((-2, 0, 1)), 2, 3)


def test_construction_rejects_interval_holding_several_roots():
    # x^3 - 6x^2 + 9x - 1 changes sign on (0, 5) but has three roots there
    cubic = IntPolynomial((-1, 9, -6, 1))
    with pytest.raises(NonIsolatingInterval, match="3 distinct real roots"):
        NumberField(cubic, 0, 5)
    for lo, hi in ((0, 1), (1, 3), (3, 5)):
        NumberField(cubic, lo, hi)
    NumberField(IntPolynomial((-1, 0, 1)), Fraction(1, 2), Fraction(3, 2))


def test_construction_rejects_repeated_factor():
    # (x - 1)^3 changes sign once on (0, 2), but Q[x]/((x - 1)^3) is no field
    with pytest.raises(ReducibleModulus) as exc:
        NumberField(IntPolynomial((-1, 3, -3, 1)), 0, 2)
    assert exc.value.factor.coeffs == (1, -2, 1)


def test_mul_theta_squared_is_two():
    th = SQRT2.theta()
    assert (th * th).coords == (frac(2), frac(0))


def test_mul_reduces_by_tribonacci_modulus():
    th = TRIB.theta()
    assert (th * (th * th)).coords == (frac(1), frac(1), frac(1))


def test_mul_difference_of_squares():
    th = SQRT2.theta()
    assert ((1 + th) * (1 - th)).coords == (frac(-1), frac(0))


def test_invert_sqrt2():
    th = SQRT2.theta()
    assert th.inverse().coords == (frac(0), frac(1, 2))


def test_invert_rational_residue():
    x = TRIB.element([3])
    assert x.inverse().coords == (frac(1, 3), frac(0), frac(0))


def test_invert_golden_shift():
    th = GOLDEN.theta()
    inv = (th - 1).inverse()
    assert (th - 1) * inv == GOLDEN.one()
    assert inv == th  # (theta - 1) * theta == theta^2 - theta == 1


def test_invert_zero_raises():
    with pytest.raises(ZeroInverse):
        TRIB.zero().inverse()


def test_reducible_modulus_surfaces_factor():
    field = NumberField(IntPolynomial((-1, 0, 1)), frac(1, 2), frac(3, 2))
    x = field.theta() - 1
    with pytest.raises(ReducibleModulus) as exc:
        x.inverse()
    assert exc.value.factor.coeffs == (-1, 1)


def test_floor_of_an_exactly_integral_value():
    # Only a reducible modulus makes a value exactly an integer; floor
    # then returns that integer by the exact-zero test.
    theta = NumberField(IntPolynomial((-1, 0, 1)), frac(1, 2), frac(3, 2)).theta()
    assert [theta.floor() for _ in range(5)] == [1] * 5
    # (x - 3)(x^2 - 2) on (1, 2): theta = sqrt(2), so theta^2 is exactly 2,
    # while the residue x^2 - 2 is not zero.
    theta = NumberField(IntPolynomial((6, -2, -3, 1)), 1, 2).theta()
    assert (theta**2).floor() == 2
    assert (theta**2 - 2 == 0) is False


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        SQRT2.theta() * TRIB.theta()
    other_root = NumberField(IntPolynomial((-2, 0, 1)), -2, -1)
    assert other_root != SQRT2
    with pytest.raises(MixedFields):
        SQRT2.theta() * other_root.theta()


def test_one_root_by_two_intervals_is_one_field():
    # (1, 2) and (0, 2) both isolate sqrt(2): a Sturm count of (1, 2) finds it.
    other_interval = NumberField(IntPolynomial((-2, 0, 1)), 0, 2)
    assert other_interval == SQRT2 and hash(other_interval) == hash(SQRT2)
    assert SQRT2.theta() * other_interval.theta() == 2
    assert SQRT2.theta() == other_interval.theta()
    assert NumberField(IntPolynomial((-2, 0, 1)), 1, 3) == other_interval


def test_inverse_roundtrip_random_elements():
    rng = random.Random(11)
    for _ in range(40):
        coords = [frac(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        x = TRIB.element(coords)
        if x.is_zero():
            continue
        assert x * x.inverse() == TRIB.one()


def test_floor_examples():
    assert SQRT2.theta().floor() == 1
    assert TRIB.theta().floor() == 1
    assert TRIB.element([frac(7, 4)]).floor() == 1
    assert TRIB.element([5]).floor() == 5
    assert (SQRT2.theta() + 2).floor() == 3
    assert (-SQRT2.theta()).floor() == -2


def test_floor_brackets_value():
    rng = random.Random(13)
    for _ in range(25):
        coords = [frac(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3)]
        x = TRIB.element(coords)
        n = x.floor()
        lo, hi = x.interval(frac(1, 10**30))
        assert n <= lo
        assert hi < n + 1


def test_floor_matches_sympy_oracle():
    # Independent oracle: the same element built on sympy's CRootOf.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(17)
    for field in (TRIB, CBRT2, QUARTIC):
        lo, hi = field.root_interval
        poly = sympy.Poly(list(reversed(field.modulus.coeffs)), x)
        (root,) = [r for r in poly.real_roots(radicals=False) if lo < r < hi]
        assert isinstance(root, sympy.CRootOf)
        for _ in range(17):
            coords = [frac(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(field.degree)]
            value = sum(sympy.Rational(c.numerator, c.denominator) * root**k
                        for k, c in enumerate(coords))
            assert math.floor(field.element(coords)) == sympy.floor(value)


def test_sign_and_compare():
    th = TRIB.theta()
    assert (-th).floor() < 0
    assert (th - 2).floor() < 0
    assert th - th == 0
    assert math.floor(frac(9, 5) - th) < 0  # theta > 1.8
    assert math.floor(th - frac(15, 8)) < 0  # theta < 1.875


def test_interval_brackets_and_shrinks():
    # A fresh field, whose bracket no other test refined; 2^(1/4) is
    # 1.18920711500272..., so its 10-digit truncation lies within 10^-10
    # below it, as lo does.
    th = NumberField(QUARTIC.modulus, 1, 2).theta()  # 2^(1/4)
    lo, hi = th.interval(frac(1, 10**10))
    assert hi - lo <= frac(1, 10**10)
    assert lo**4 <= 2 <= hi**4
    assert abs(lo - Fraction("1.1892071150")) < frac(1, 10**10)


def test_field_arithmetic_matches_interval_products():
    rng = random.Random(5)
    w = frac(1, 10**15)
    for _ in range(15):
        x = TRIB.element([frac(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)])
        y = TRIB.element([frac(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)])
        z = x * y
        xl, xh = x.interval(w)
        yl, yh = y.interval(w)
        zl, zh = z.interval(w)
        mid = (xl + xh) / 2 * (yl + yh) / 2
        assert abs((zl + zh) / 2 - mid) < frac(1, 10**12)


def test_division_and_pow():
    th = TRIB.theta()
    assert (th**3).coords == (frac(1), frac(1), frac(1))
    assert th / th == TRIB.one()
    assert (1 / th) * th == TRIB.one()
    assert ((th * th - th) / th) == th - 1


def test_rational_element_hashes_as_its_rational():
    x = NumberField(IntPolynomial((-2, 0, 1)), 1, 2).element([3])
    assert x == 3 and hash(x) == hash(3) == hash(Fraction(3))
    assert len({x, 3}) == 1
    half = SQRT2.element([frac(1, 2)])
    assert hash(half) == hash(frac(1, 2))
    assert len({half, frac(1, 2), SQRT2.element([frac(1, 2)])}) == 1


def assert_bracket_isolates(field):
    lo, hi, s_lo = field.bracket
    root_lo, root_hi = field.root_interval
    assert root_lo <= lo < hi <= root_hi
    assert field.modulus.sign_at(lo) == s_lo
    assert s_lo * field.modulus.sign_at(hi) < 0
    assert root_count(sturm_chain(field.modulus), lo, hi) == 1


def test_interleaved_decisions_only_tighten_the_bracket():
    field = NumberField(CBRT2.modulus, 1, 2)
    theta, square = field.theta(), field.theta() ** 2
    widths = []
    for k in range(1, 11):
        # Tight enclosures of theta between loose decisions on theta^2,
        # which must not widen the bracket the tight ones left.
        for x, cube, width in ((theta, 2, frac(1, 2 ** (40 * k))), (square, 4, frac(1, 2**10))):
            assert x.floor() == 1
            lo, hi = x.interval(width)
            assert hi - lo <= width and lo**3 <= cube <= hi**3
            lo, hi, _ = field.bracket
            widths.append(hi - lo)
            assert_bracket_isolates(field)
    assert widths == sorted(widths, reverse=True)
    assert widths[-1] < frac(1, 2**400)


@functools.cache
def refined_field(modulus):
    """A field of its own whose bracket a deep expansion already refined."""
    field = NumberField(modulus, 1, 2)
    expand([field.theta()], 150)
    return field


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([TRIB.modulus, CBRT2.modulus, QUARTIC.modulus]),
    st.lists(st.lists(st.fractions(-9, 9, max_denominator=9), min_size=4, max_size=4),
             min_size=1, max_size=2),
)
def test_decisions_do_not_depend_on_the_bracket_they_start_from(modulus, rows):
    refined = refined_field(modulus)
    fresh = NumberField(modulus, 1, 2)
    tight = frac(1, 10**12)
    runs, intervals = [], []
    for field in (fresh, refined):
        xs = [field.element(row[: field.degree]) for row in rows]
        floors = [math.floor(x) for x in xs]
        intervals.append([x.interval(tight) for x in xs])
        xs = [x if n >= 0 else -x for x, n in zip(xs, floors)]
        exp = expand(xs, 12)
        runs.append((floors, exp.digits, exp.terminated_at, exp.recurrence))
        assert_bracket_isolates(field)
    assert runs[0] == runs[1]
    # An enclosure is the dyadic cell of a floor, whatever the bracket.
    assert intervals[0] == intervals[1]
    for n, (a, b) in zip(runs[0][0], intervals[0]):
        assert b - a <= tight and n <= a < b <= n + 1


def monic(low):
    return st.lists(st.integers(-low, low), min_size=1, max_size=4).map(lambda c: (*c, 1))


def at(coeffs, n):
    return sum(c * n**k for k, c in enumerate(coeffs))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(monic(40).map(lambda p: (p, None)), st.tuples(monic(9), monic(9))),
    st.lists(st.integers(-50, 50), max_size=4),
    st.sampled_from([1, 12, 30]),
)
def test_key_point_certifies_units(moduli, cofactor, key_bits):
    # Moduli are irreducible ones, or products p = g*h of two monic factors.
    # For the point (n, M): M divides p(n), n >= H + 3 and S = |p(n)| / M, a
    # product of primes below 100, is < n - H - 1; so a multiple of g, a
    # zero divisor mod p, shares a prime with M at n and gets no key.
    sympy = pytest.importorskip("sympy")
    g, h = moduli
    p = g if h is None else qp_mul(g, h)
    if h is None:
        assume(len(p) > 2 and sympy.Poly(p[::-1], sympy.Symbol("x")).is_irreducible)
    with mock.patch.object(numberfield, "_KEY_BITS", key_bits):
        n, m, prime = numberfield._key_point(p)
    top = max(abs(c) for c in p[:-1])
    s, rest = divmod(abs(at(p, n)), m)
    assert rest == 0 and n >= top + 3 and s < n - top - 1
    assert math.gcd(m, math.prod(sympy.primerange(100))) == 1
    assert max(sympy.factorint(s), default=2) < 100
    if prime:
        assert sympy.isprime(m)
    if h is not None:
        multiple = qp_divmod(qp_mul(g, cofactor or [0]), p)[1]
        assert math.gcd(at(multiple, n), m) > 1


@pytest.mark.parametrize("coeffs", [(6, -2, -3, 1), (-1, 0, 1), (-4, 0, 1)])
def test_key_point_search_stops_at_its_window(coeffs):
    # A reducible modulus never gives a prime M (g(n) and h(n) both divide
    # p(n)), so the search runs to the end of its window and keeps the first
    # acceptable point: (x - 3)(x^2 - 2), x^2 - 1, x^2 - 4.
    points, homogeneous_eval = [], numberfield.homogeneous_eval

    def counted(c, x, q):
        points.append(x)
        return homogeneous_eval(c, x, q)

    with mock.patch.object(numberfield, "homogeneous_eval", counted):
        assert numberfield._key_point(coeffs)[2] is False
    assert len(points) <= numberfield._KEY_WINDOW


@contextlib.contextmanager
def asked_precisions():
    """The list of precisions asked of ``NumberField.dyadic``, in order."""
    asked, dyadic = [], NumberField.dyadic

    def recorded(self, bits):
        asked.append(bits)
        return dyadic(self, bits)

    with mock.patch.object(NumberField, "dyadic", recorded):
        yield asked


def test_a_field_keeps_no_precision_between_callers():
    # A deep expansion leaves nothing behind for the next caller: a short
    # one asks for the precisions it asks of a fresh field, and a lone floor
    # starts at FLOOR_BITS.
    used = NumberField(CBRT2.modulus, 1, 2)
    with asked_precisions() as deep:
        expand([used.theta()], 150)
    assert max(deep) > numberfield.FLOOR_BITS
    with asked_precisions() as fresh:
        short = expand([NumberField(CBRT2.modulus, 1, 2).theta()], 50)
    with asked_precisions() as reused:
        assert expand([used.theta()], 50) == short
    assert reused == fresh
    with asked_precisions() as asked:
        assert math.floor(used.theta() * 10**30) == 1259921049894873164767210607278
    assert asked[0] == numberfield.FLOOR_BITS


@pytest.mark.parametrize("modulus", [CBRT2.modulus, QUARTIC.modulus])
def test_dyadic_at_the_last_cell_evaluates_nothing(modulus):
    # The bracket left by dyadic(bits) is that cell, which the one-cell
    # test answers without a sign evaluation or a Newton step.
    field = NumberField(modulus, 1, 2)
    for bits in (64, 128, 1000):
        t, bracket = field.dyadic(bits), field.bracket
        with mock.patch.object(numberfield, "homogeneous_eval", side_effect=AssertionError):
            assert field.dyadic(bits) == t
        assert field.bracket is bracket


STEPPED_FIELDS = [  # (field, order m of the rows)
    (CBRT2, 1),
    (NumberField(IntPolynomial((-3, -1, 0, 1)), 1, 2), 2),
    (NumberField(IntPolynomial((-3, 0, 0, 0, 1)), 1, 2), 3),
    (NumberField(IntPolynomial((2, 0, 0, 1)), -2, -1), 1),
]


def positive_rows(field, rows):
    """Integer rows with v_0 > 0 and every v_k/v_0 >= 0 at theta, made from
    any rows with v_0 != 0 by a sign and by adding multiples of v_0."""
    v0 = rows[0] if math.floor(field.element(rows[0])) >= 0 else [-c for c in rows[0]]
    floors = field.ratio_floors((v0, *rows[1:]))[0]
    return (tuple(v0), *(tuple(c + max(0, -a) * c0 for c, c0 in zip(v, v0))
                         for v, a in zip(rows[1:], floors)))


def stepped(boxes, digits):
    """The run's step of enclosures [lo_k, hi_k] by non-negative digits."""
    (lo0, hi0), *ends = boxes
    ends = [(lo - a * hi0, hi - a * lo0) for (lo, hi), a in zip(ends, digits)]
    return (ends[-1], boxes[0], *ends[:-1])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(STEPPED_FIELDS), st.data())
def test_stepped_enclosures_floor_as_fresh_ones(case, data):
    field, m = case
    coords = st.lists(st.integers(-50, 50), min_size=field.degree, max_size=field.degree)
    rows = data.draw(st.lists(coords, min_size=m + 1, max_size=m + 1))
    assume(any(rows[0]))
    rows = positive_rows(field, rows)
    floors, bits, boxes = field.ratio_floors(rows)
    nxt = row_step(rows, floors)
    assume(any(nxt[0]))
    boxes = stepped(boxes, floors)
    # Wider enclosures are enclosures too, so the floors may not depend on
    # them; a slack up to v_0's upper end moves each ratio's ends by up to 1.
    slack = data.draw(st.integers(0, 8)) * boxes[0][1] // 8
    boxes = tuple((lo - slack, hi + slack) for lo, hi in boxes)
    assert field.ratio_floors(nxt, bits, boxes)[0] == field.ratio_floors(nxt)[0]


ROWS = ((1, 1, 0), (0, 5, 3), (7, 0, -2))  # (1 + t, 5t + 3t^2, 7 - 2t^2) over x^3 - x - 3


def test_enclosures_that_decide_enclose_nothing():
    field = STEPPED_FIELDS[1][0]
    decided = field.ratio_floors(ROWS)
    with mock.patch.object(numberfield, "scaled_box", side_effect=AssertionError), \
            mock.patch.object(NumberField, "dyadic", side_effect=AssertionError):
        assert field.ratio_floors(ROWS, 7, decided[2]) == (decided[0], 7, decided[2])


def test_enclosures_that_do_not_decide_are_made_afresh():
    field = STEPPED_FIELDS[1][0]
    floors, bits, boxes = field.ratio_floors(ROWS)
    (lo0, hi0), *ends = boxes
    straddling = ((lo0, hi0), *((lo, hi + hi0) for lo, hi in ends))  # ends one floor apart
    widened = ((lo0, hi0), *((lo - hi0, hi + hi0) for lo, hi in ends))
    scaled_box = numberfield.scaled_box
    for given_boxes in (straddling, widened, ((0, hi0), *ends), ((-hi0, hi0), *ends)):
        enclosed = []
        with mock.patch.object(numberfield, "scaled_box",
                               lambda *a: enclosed.append(a) or scaled_box(*a)):
            assert field.ratio_floors(ROWS, bits, given_boxes) == (floors, bits, boxes)
        assert len(enclosed) == len(ROWS)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([SQRT2, TRIB, CBRT2, QUARTIC]),
    st.lists(st.fractions(-9, 9, max_denominator=9), min_size=4, max_size=4),
    st.builds(Fraction, st.integers(1, 1000), st.integers(1, 10**30)),
)
@example(SQRT2, [0, 1, 0, 0], Fraction(1, 4))
@example(TRIB, [3, 0, 0, 0], Fraction(3))
def test_interval_is_the_dyadic_cell_of_a_floor(field, coords, width):
    x = field.element(coords[: field.degree])
    k = 0
    while Fraction(1, 2**k) > width:
        k += 1
    n = math.floor(x * 2**k)
    assert x.interval(width) == (Fraction(n, 2**k), Fraction(n + 1, 2**k))


def test_the_sturm_chain_is_built_once_per_field():
    # Two intervals of the cube root of 2: every cross-field operation
    # compares the fields by a root count on the chain each already holds.
    built, sturm_chain = [], numberfield.sturm_chain
    with mock.patch.object(numberfield, "sturm_chain", lambda p: built.append(p) or sturm_chain(p)):
        a = NumberField(CBRT2.modulus, 1, 2)
        b = NumberField(CBRT2.modulus, Fraction(5, 4), Fraction(3, 2))
        assert len(built) == 2
        x, y = a.theta(), b.theta()
        assert x + y == 2 * x and x * y == x**2 and x == y and a == b
    assert len(built) == 2


def test_a_field_counts_roots_once_per_other_interval():
    # Cross-field arithmetic compares the fields at every operation; each
    # field keeps its verdict per other root interval, the same or not.
    counted, root_count = [], numberfield.root_count
    a = NumberField(CBRT2.modulus, 1, 2)
    b = NumberField(CBRT2.modulus, Fraction(5, 4), Fraction(3, 2))
    plus = NumberField(SQRT2.modulus, 1, 2)
    minus = NumberField(SQRT2.modulus, -2, Fraction(6, 5))  # -sqrt 2; meets (1, 2)
    with mock.patch.object(numberfield, "root_count", lambda *r: counted.append(r) or root_count(*r)):
        x, y = a.theta(), b.theta()
        for _ in range(10):
            assert x + y == 2 * x and x * y == x**2 and x == y
        assert len(counted) == 1
        for _ in range(3):
            with pytest.raises(MixedFields):
                minus.theta() + plus.theta()
    assert len(counted) == 2


def test_zero_divisors_share_a_prime_with_the_key_modulus():
    # (x - 3)(x^2 - 2) on (1, 2), theta = sqrt 2: x^2 - 2 vanishes at theta
    # and x - 3 does not, but both are zero divisors, so the screen prime to
    # M passes neither to the answer; x + 1 is a unit and is keyed.
    field = NumberField(IntPolynomial((6, -2, -3, 1)), 1, 2)
    assert field._vanishes([-2, 0, 1])
    assert not field._vanishes([-3, 1, 0]) and not field._vanishes([1, 1, 0])
    for zero_divisor, factor in (((-2, 0, 1), "x^2 - 2"), ((-3, 1, 0), "x - 3")):
        with pytest.raises(ReducibleModulus, match=f"has factor {re.escape(factor)}$"):
            field.ratio_key((zero_divisor, (1, 0, 0)))
    assert field.ratio_key(((1, 1, 0), (0, 1, 0))) is not None


@settings(max_examples=300, deadline=None)
@given(st.integers(101, numberfield._PRIME_LIMIT + 10**6))
@example(2**29 - 1)  # 233 * 1103 * 2089, which the Fermat test to base 2 passes
@example(3215031751)  # a strong pseudoprime to the bases 2, 3, 5 and 7
@example(numberfield._PRIME_LIMIT)  # a strong pseudoprime to the bases 2, 7 and 61
def test_strong_test_is_exact_below_its_limit(m):
    sympy = pytest.importorskip("sympy")
    assert numberfield._is_prime(m) == (m < numberfield._PRIME_LIMIT and sympy.isprime(m))
