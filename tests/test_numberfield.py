import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcf.arith import IntPolynomial, NumberField
from bcf.arith.polynomials import root_count, sturm_chain
from bcf.errors import (
    MixedFields,
    NonIsolatingInterval,
    NonMonicModulus,
    ReducibleModulus,
    ZeroInverse,
)
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


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        SQRT2.theta() * TRIB.theta()
    other_interval = NumberField(IntPolynomial((-2, 0, 1)), 0, 2)
    with pytest.raises(MixedFields):
        SQRT2.theta() * other_interval.theta()


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
    th = QUARTIC.theta()  # 2^(1/4)
    lo, hi = th.interval(frac(1, 10**10))
    assert hi - lo <= frac(1, 10**10)
    assert lo <= Fraction("1.1892071150") <= hi


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
    first = field.theta()._enclosures()
    second = (field.theta() ** 2)._enclosures()
    widths = []
    for gen in [first, first, first, second] * 10:  # second falls behind
        _, _, lo, hi = next(gen)
        assert (lo, hi) == field.bracket[:2]
        widths.append(hi - lo)
    assert widths == sorted(widths, reverse=True)
    assert widths[-1] < frac(1, 2**30)
    assert_bracket_isolates(field)


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
    # Enclosures depend on the bracket they come from, but both hold the
    # value: each is narrow enough and they overlap within the floor's cell.
    for n, (a, b), (c, d) in zip(runs[0][0], *intervals):
        assert b - a <= tight and d - c <= tight
        assert max(a, c) <= min(b, d)
        assert n <= max(b, d) and min(a, c) < n + 1
