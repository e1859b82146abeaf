import random
from fractions import Fraction
from itertools import product
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcf.arith import IntPolynomial, NumberField
from bcf.closedform import (
    CubicCandidate,
    allones_poly,
    alpha_cubic,
    beta_cubic,
    cubic_hunt,
)
from bcf.errors import PrecisionTooLow
from bcf.evaluation import DigitSpec, reconstruct
from bcf.expansion import expand


def tol(exp10: int) -> Fraction:
    return Fraction(1, 10**exp10)


def test_alpha_cubic_coefficients():
    assert alpha_cubic(1, 1).coeffs == (-1, -1, -1, 1)
    assert alpha_cubic(1, 0).coeffs == (-1, 0, -1, 1)
    assert alpha_cubic(2, 3).coeffs == (-1, -3, -2, 1)


def test_alpha_cubic_rejects_bad_params():
    with pytest.raises(ValueError):
        alpha_cubic(0, 1)
    with pytest.raises(ValueError):
        alpha_cubic(1, -1)


def test_beta_cubic_coefficients():
    assert beta_cubic(1, 1).coeffs == (-2, 2, -2, 1)
    assert beta_cubic(1, 0).coeffs == (-1, 1, 0, 1)


def test_beta_root_is_one_plus_inverse_alpha():
    a_lo, a_hi = NumberField(alpha_cubic(1, 1), 1, 2).theta().interval(tol(12))
    b_lo, b_hi = NumberField(beta_cubic(1, 1), 1, 2).theta().interval(tol(12))
    alpha = (a_lo + a_hi) / 2
    beta = (b_lo + b_hi) / 2
    assert abs(beta - (1 + 1 / alpha)) < tol(10)
    assert abs(beta - Fraction("1.5436890")) < tol(6)


def test_allones_poly():
    assert allones_poly(1).coeffs == (-1, -1, 1)
    assert allones_poly(2).coeffs == (-1, -1, -1, 1)
    assert allones_poly(3).coeffs == (-1, -1, -1, -1, 1)


def test_verify_root_exact_values():
    assert abs(alpha_cubic(1, 1)(Fraction(24, 13))) == Fraction(83, 2197)
    assert abs(IntPolynomial((-1, -1, 1))(Fraction(8, 5))) == Fraction(1, 25)
    assert abs(alpha_cubic(1, 0)(Fraction(1))) == 1


def test_alpha_cubic_root_is_isolated_above_a():
    # p(a) = -ab - 1 < 0 < p(a + b + 1), and the other two roots are
    # negative or complex, so the field's Sturm count accepts the interval.
    for a in range(1, 7):
        for b in range(9):
            alpha = NumberField(alpha_cubic(a, b), a, a + b + 1).theta()
            assert a <= floor(alpha) <= a + b


def test_root_agrees_with_reconstruction_grid():
    for a in (1, 2, 3):
        for b in (0, 1, 2, 3):
            poly = alpha_cubic(a, b)
            lo, hi = NumberField(poly, a, a + b + 1).theta().interval(tol(12))
            root = (lo + hi) / 2
            values, _ = reconstruct(DigitSpec.constant((a, b)), tol(10))
            alpha, beta = values
            assert abs(alpha - root) < tol(8)
            # fixed-point relations
            assert abs(alpha - (a + beta / alpha)) < tol(8)
            assert abs(beta - (b + 1 / alpha)) < tol(8)
            # beta satisfies its own cubic's root
            b_field = NumberField(beta_cubic(a, b), beta - tol(2), beta + tol(2))
            b_lo, b_hi = b_field.theta().interval(tol(12))
            assert abs(beta - (b_lo + b_hi) / 2) < tol(8)


def test_period1_pair_expands_to_its_digits_exactly_when_b_at_most_a():
    for a in range(1, 7):
        for b in range(9):
            poly = alpha_cubic(a, b)
            if b == a + 2:
                assert poly(-1) == 0  # x + 1 divides it: no field to expand in
                continue
            alpha = NumberField(poly, a, a + b + 1).theta()
            exp = expand([alpha, b + alpha.inverse()], 10)
            assert (exp.digits == ((a,) * 10, (b,) * 10)) == (b <= a), (a, b)


def test_allones_root_matches_reconstruction():
    for m in (1, 2, 3, 4):
        lo, hi = NumberField(allones_poly(m), 1, 2).theta().interval(tol(12))
        root = (lo + hi) / 2
        values, _ = reconstruct(DigitSpec.constant((1,) * m), tol(8))
        assert abs(values[0] - root) < tol(6)


def test_cubic_hunt_finds_tribonacci():
    hits = cubic_hunt(Fraction("1.8392867552141612"), 3, tol(9), value_error=tol(13))
    assert (1, -1, -1, -1) in [h.coeffs for h in hits]


def test_cubic_hunt_finds_moore():
    hits = cubic_hunt(Fraction("1.4655712318767682"), 3, tol(9), value_error=tol(13))
    assert (1, -1, 0, -1) in [h.coeffs for h in hits]


def test_cubic_hunt_results_sorted_and_primitive():
    hits = cubic_hunt(Fraction("1.8392867552141612"), 6, tol(6), value_error=tol(13))
    residuals = [h.residual for h in hits]
    assert residuals == sorted(residuals)
    for h in hits:
        assert gcd(*(abs(c) for c in h.coeffs)) == 1


def test_cubic_hunt_precision_gate():
    with pytest.raises(PrecisionTooLow):
        cubic_hunt(Fraction("1.8392"), 3, tol(9), value_error=tol(4))


def test_cubic_hunt_period2_probe():
    spec = DigitSpec(order=2, head=((), ()), cycle=((1, 2), (1, 1)))
    values, bound = reconstruct(spec, tol(20), max_depth=500)
    hits = cubic_hunt(values[0], 10, tol(9), value_error=bound)
    assert hits
    assert hits[0].residual < tol(9)


def cubic_oracle(value, height, tol):
    """cubic_hunt by brute force: every c0 in [-height, height]."""
    v3, v2 = value**3, value**2
    found = []
    for c3 in range(1, height + 1):
        for c2, c1 in product(range(-height, height + 1), repeat=2):
            s = c3 * v3 + c2 * v2 + c1 * value
            for c0 in range(-height, height + 1):
                residual = abs(s + c0)
                if residual < tol and gcd(c3, c2, c1, c0) == 1:
                    found.append(CubicCandidate((c3, c2, c1, c0), residual))
    return sorted(found, key=lambda c: (c.residual, c.coeffs))


def test_cubic_hunt_matches_brute_force():
    rng = random.Random(8)
    tols = [tol(9), Fraction(1, 2), Fraction(1), Fraction(7, 4)]
    values = [Fraction("1.8392867552141612"), Fraction(1, 2), Fraction(-3, 2), Fraction(0)]
    values += [Fraction(rng.randint(-2500, 2500), rng.choice([2, 4, 100, 997])) for _ in range(10)]
    for value in values:
        for height in (1, 2, 3):
            for t in tols:
                assert cubic_hunt(value, height, t) == cubic_oracle(value, height, t)


# Convergent values of the constant pairs, as reconstruct returns them:
# 40-70-bit numerators and denominators lying close to real cubic roots.
PROBE_VALUES = [
    reconstruct(DigitSpec.constant((a, b)), tol(20))[0][0] for a in (1, 2, 3) for b in (0, 1, 2)
]


@st.composite
def wide_values(draw):
    den = draw(st.integers(2**40, 2**70))
    return Fraction(draw(st.integers(-4 * den, 4 * den)), den)


hunt_values = st.one_of(
    st.sampled_from(PROBE_VALUES),
    wide_values(),
    st.integers(-60, 60).map(lambda n: Fraction(n, 2)),  # exact halves: rounding ties
    st.builds(Fraction, st.integers(-3000, 3000), st.sampled_from([1, 3, 4, 8, 100, 997])),
)
hunt_tols = st.one_of(
    st.sampled_from([tol(9), tol(3), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(7, 4)]),
    # Tolerances far above height: the hunt's work must not grow with them.
    st.sampled_from([Fraction(10), Fraction(1000), Fraction(10**6), Fraction(21, 2),
                     Fraction(2001, 2), Fraction(3 * 10**6 + 1, 3)]),
    st.fractions(min_value=Fraction(1, 100), max_value=3, max_denominator=100),
)


@settings(max_examples=150, deadline=None)
@given(hunt_values, st.integers(1, 4), hunt_tols)
def test_cubic_hunt_matches_brute_force_property(value, height, t):
    assert cubic_hunt(value, height, t) == cubic_oracle(value, height, t)


def test_cubic_hunt_at_a_huge_tolerance_is_bounded_by_height():
    hits = cubic_hunt(Fraction(3, 2), 2, 10**12)
    assert len(hits) == 223
    assert hits == cubic_oracle(Fraction(3, 2), 2, 10**12)
