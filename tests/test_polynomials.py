import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bcf.arith import numberfield, polynomials
from bcf.arith.numberfield import NumberField
from bcf.arith.polynomials import (
    IntPolynomial,
    bisect_once,
    homogeneous_eval,
    qp_divmod,
    qp_ext_gcd,
    qp_mul,
    qp_primitive_int,
    qp_sub,
    qp_trim,
    root_count,
    scaled_box,
    sturm_chain,
)
from bcf.closedform import allones_poly, alpha_cubic
from bcf.errors import NonIsolatingInterval
from bcf.expansion import expand

TRIBONACCI = IntPolynomial((-1, -1, -1, 1))
TETRANACCI = IntPolynomial((-1, -1, -1, -1, 1))
SQRT2 = IntPolynomial((-2, 0, 1))
X2_MINUS_1 = IntPolynomial((-1, 0, 1))


def fraction_horner(coeffs, x):
    """Test-only oracle: the value at a rational x by Horner on Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def root_bracket(poly, lo, hi, width):
    """Test-only oracle: plain bisection of a sign-change bracket."""
    lo, hi = Fraction(lo), Fraction(hi)
    s_lo = poly.sign_at(lo)
    while hi - lo > width:
        lo, hi, s_lo = bisect_once(poly, lo, hi, s_lo)
    return lo, hi


def test_canonical_form_strips_trailing_zeros():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial(()).is_zero


def test_evaluation_is_exact():
    assert TRIBONACCI(Fraction(24, 13)) == Fraction(83, 2197)
    assert SQRT2(2) == 2
    assert TRIBONACCI(0) == -1


def test_pretty():
    assert TRIBONACCI.pretty() == "x^3 - x^2 - x - 1"
    assert IntPolynomial((-1, 0, -1, 1)).pretty() == "x^3 - x^2 - 1"
    assert IntPolynomial((-2, 2, -2, 1)).pretty() == "x^3 - 2*x^2 + 2*x - 2"
    assert IntPolynomial((5,)).pretty() == "5"
    assert IntPolynomial(()).pretty() == "0"


# Mixed-sign coefficients, zeros among them, down to constant and zero
# polynomials; cells left of -1, touching 0 (t = -1) and right of 0.
SCALED_COEFFS = st.lists(
    st.one_of(st.just(0), st.integers(-(10**6), 10**6)), min_size=1, max_size=7
)
SCALED_T = st.one_of(st.sampled_from([-2, -1, 0, 1]), st.integers(-(2**100), 2**100))


@given(SCALED_COEFFS, SCALED_T, st.integers(0, 80), st.fractions(0, 1, max_denominator=50))
def test_interval_eval_contains_point_values(coeffs, t, bits, f):
    lo, hi = scaled_box(coeffs, t, bits)
    scale = 2 ** (bits * (len(coeffs) - 1))
    for x in (t, t + f, t + 1):
        assert lo <= scale * fraction_horner(coeffs, Fraction(x, 2**bits)) <= hi


@given(SCALED_COEFFS, SCALED_T, st.integers(0, 80))
def test_interval_eval_is_the_four_product_box(coeffs, t, bits):
    # Interval Horner with all four end products, for a cell of either
    # sign: scaled_box gives exactly this box, so no decision depends on
    # the side of 0 the cell lies on.
    lo = hi = coeffs[-1]
    for shift, c in enumerate(reversed(coeffs[:-1]), 1):
        ends = (lo * t, lo * (t + 1), hi * t, hi * (t + 1))
        lo, hi = min(ends) + (c << bits * shift), max(ends) + (c << bits * shift)
    assert scaled_box(coeffs, t, bits) == (lo, hi)


# Denominators: 1 (the key point), a power of two (a dyadic point) and odd.
DENOMINATORS = st.one_of(
    st.just(1),
    st.integers(0, 80).map(lambda bits: 1 << bits),
    st.integers(0, 10**6).map(lambda k: 2 * k + 1),
)


@given(st.one_of(st.just([]), SCALED_COEFFS), SCALED_T, DENOMINATORS)
def test_homogeneous_eval_is_the_exact_value(coeffs, p, q):
    x = Fraction(p, q)
    value = fraction_horner(coeffs, x)
    assert homogeneous_eval(coeffs, p, q) == q ** max(len(coeffs) - 1, 0) * value
    at_x = IntPolynomial(tuple(coeffs))(x)
    assert type(at_x) is Fraction and at_x == value
    assert IntPolynomial(tuple(coeffs)).sign_at(x) == (value > 0) - (value < 0)


def test_refine_root_sqrt2_quarter_width():
    lo, hi = NumberField(SQRT2, 1, 2).theta().interval(Fraction(1, 4))
    assert hi - lo <= Fraction(1, 4)
    assert Fraction(1) <= lo < hi <= Fraction(2)
    assert SQRT2.sign_at(lo) * SQRT2.sign_at(hi) < 0


def test_refine_root_tribonacci_constant():
    # The constant to its 14 printed decimals, truncated: theta lies in
    # (target, target + 10^-14).
    target = Fraction("1.83928675521416")
    assert TRIBONACCI.sign_at(target) < 0 < TRIBONACCI.sign_at(target + Fraction(1, 10**14))
    lo, hi = NumberField(TRIBONACCI, 1, 2).theta().interval(Fraction(1, 10**14))
    assert hi - lo <= Fraction(1, 10**14)
    assert 1 <= lo < hi <= 2 and TRIBONACCI.sign_at(lo) < 0 < TRIBONACCI.sign_at(hi)
    assert abs(lo - target) <= Fraction(1, 10**14)


def test_refine_root_tetranacci_ten_decimals():
    # theta = 1.927561975482925...; the commonly printed 14-digit form of
    # this constant is only reliable to ~11 decimals.
    assert TETRANACCI.sign_at(Fraction("1.927561975482925")) < 0
    assert TETRANACCI.sign_at(Fraction("1.927561975482926")) > 0
    lo, hi = NumberField(TETRANACCI, 1, 2).theta().interval(Fraction(1, 10**12))
    assert hi - lo <= Fraction(1, 10**12)
    assert 1 <= lo < hi <= 2 and TETRANACCI.sign_at(lo) < 0 < TETRANACCI.sign_at(hi)
    assert abs(lo - Fraction("1.9275619754")) < Fraction(1, 10**10)


def test_refine_root_requires_sign_change():
    with pytest.raises(NonIsolatingInterval):
        NumberField(SQRT2, 2, 3)


def test_refine_root_nests_and_preserves_signs():
    rng = random.Random(21)
    for _ in range(30):
        # build a polynomial with a known root strictly inside (0, 4)
        root_num = rng.randint(1, 15)
        root_den = rng.randint(4, 9)
        other = rng.randint(5, 9)
        # (den*x - num)(x - other): rational root num/den, far root keeps sign change
        poly = IntPolynomial(
            (root_num * other, -(root_num + root_den * other), root_den)
        )
        lo0, hi0 = Fraction(0), Fraction(4)
        if poly.sign_at(lo0) * poly.sign_at(hi0) >= 0:
            continue
        lo, hi = root_bracket(poly, lo0, hi0, Fraction(1, 1000))
        assert lo0 <= lo < hi <= hi0
        assert hi - lo <= Fraction(1, 1000)
        assert lo <= Fraction(root_num, root_den) <= hi


def test_bisect_once_shrinks_around_an_exact_midpoint_root():
    # The midpoint 1 is the bracket's only root, so the bracket shrinks to
    # the quarter points and the sign left of the root stays -1.
    assert bisect_once(X2_MINUS_1, Fraction(0), Fraction(2), -1) == (
        Fraction(1, 2),
        Fraction(3, 2),
        -1,
    )
    assert NumberField(X2_MINUS_1, 0, 2).theta().floor() == 1


ORACLE_CASES = (
    [(alpha_cubic(a, b), a, a + b + 1) for a in range(1, 7) for b in range(9)]
    + [(allones_poly(m), 1, 2) for m in range(1, 6)]
    + [(X2_MINUS_1, 0, 2)]
)


@given(st.sampled_from(ORACLE_CASES), st.integers(0, 60))
def test_field_interval_encloses_theta(case, k):
    poly, lo0, hi0 = case
    width = Fraction(1, 2**k)
    lo, hi = NumberField(poly, lo0, hi0).theta().interval(width)
    assert lo <= hi <= lo + width
    # theta is the only root in (lo0, hi0), where the modulus has the sign
    # s left of theta and -s right of it: theta is in [a, b] iff the sign
    # at a is not -s and the sign at b is not s.
    a, b = max(lo, Fraction(lo0)), min(hi, Fraction(hi0))
    s = poly.sign_at(lo0)
    assert a <= b and s * poly.sign_at(a) >= 0 >= s * poly.sign_at(b)


def test_bisection_evaluates_only_the_midpoint(monkeypatch):
    theta = NumberField(IntPolynomial((-2, 0, 0, 1)), 1, 2).theta()  # 2^(1/3)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # One evaluator serves the sign tests (polynomials) and Newton and the
    # cell certificates (numberfield); both names are counted as one.
    evaluate = counted("eval", polynomials.homogeneous_eval)
    monkeypatch.setattr(polynomials, "homogeneous_eval", evaluate)
    monkeypatch.setattr(numberfield, "homogeneous_eval", evaluate)
    monkeypatch.setattr(numberfield, "bisect_once", counted("bisect", numberfield.bisect_once))
    lo, hi, s_lo = theta.field.bracket
    bisect_once(theta.field.modulus, lo, hi, s_lo)
    assert calls == {"eval": 1}
    # The recurrence keys' integer point, chosen once per field, evaluates
    # the modulus at integers; only the root's refinement is counted below.
    theta.field.ratio_key(((1, 0, 0), (0, 1, 0)))
    calls.clear()
    first = expand([theta], 60)
    # The floors read a dyadic bracket of theta that Newton steps refine to
    # 64, 128 and 256 bits, without a bisection; a second run finds it
    # settled already.
    assert calls == {"eval": 26}
    calls.clear()
    assert expand([theta], 60) == first
    assert calls == {}


@pytest.mark.parametrize(
    "poly, lo, hi",
    [(TRIBONACCI, 1, 2), (SQRT2, -2, -1), (IntPolynomial((-1, 1, 1)), -1, 1),
     (IntPolynomial((-1, -1, 1)), -1, Fraction(1, 2)), (X2_MINUS_1, Fraction(1, 2), 3),
     (IntPolynomial((-1, 9, -6, 1)), 1, 3), (TETRANACCI, 0, 5)],
)
def test_dyadic_cell_holds_theta_and_tightens_the_bracket(poly, lo, hi):
    field = NumberField(poly, lo, hi)
    widths = []
    for bits in (1, 7, 64, 8, 300, 1000):
        t = field.dyadic(bits)
        # The cell meets a bisection bracket of theta 2^8 times narrower.
        a, b = root_bracket(poly, lo, hi, Fraction(1, 2 ** (bits + 8)))
        assert Fraction(t, 2**bits) < b and a < Fraction(t + 1, 2**bits)
        blo, bhi, s_lo = field.bracket
        assert lo <= blo < bhi <= hi
        assert poly.sign_at(blo) == s_lo == -poly.sign_at(bhi)
        widths.append(bhi - blo)
    assert widths == sorted(widths, reverse=True)


def reference_divmod(a, b):
    """Test-only copy of the general long division: divide by the lead and
    subtract every divisor term."""
    b = qp_trim(b)
    rem = list(qp_trim(a))
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while rem and len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quo[shift] = factor
        for j, c in enumerate(b):
            rem[shift + j] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return qp_trim(quo), qp_trim(rem)


@given(
    st.lists(st.fractions(-20, 20, max_denominator=6), max_size=9),
    st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(-3, 2), 5]), max_size=6),
    st.sampled_from([1, 1, 2, -1, Fraction(1, 3)]),
)
def test_qp_divmod_matches_the_general_division(a, b, lead):
    b = tuple(map(Fraction, b)) + (Fraction(lead),)
    assert qp_divmod(a, b) == reference_divmod(a, b)
    q, r = qp_divmod(a, b)
    assert qp_sub(qp_trim(a), qp_mul(q, b)) == r
    assert len(r) < len(b)


def test_qp_division_and_gcd():
    # (x^2 - 1) = (x + 1)(x - 1)
    a = (Fraction(-1), Fraction(0), Fraction(1))
    b = (Fraction(1), Fraction(1))
    q, r = qp_divmod(a, b)
    assert r == ()
    assert qp_mul(q, b) == a
    g, u = qp_ext_gcd(a, b)
    # gcd is x+1 up to a rational unit
    assert qp_primitive_int(g).coeffs == (1, 1)
    # u*a == g (mod b), i.e. some v has u*a + v*b == g
    assert qp_divmod(qp_sub(g, qp_mul(u, a)), b)[1] == ()


def test_qp_ext_gcd_coprime_gives_constant():
    mod = tuple(Fraction(c) for c in TRIBONACCI.coeffs)
    res = (Fraction(-1), Fraction(1))  # x - 1
    g, u = qp_ext_gcd(res, mod)
    assert len(g) == 1
    assert qp_divmod(qp_sub(g, qp_mul(u, res)), mod)[1] == ()


@given(
    st.lists(st.integers(-20, 20), max_size=7),
    st.lists(st.integers(-20, 20), max_size=4),
    st.integers(-5, 5).filter(bool),
)
@example([1, 2, 3], [1], 2)  # (3x^2 + 2x + 1) / (2x + 1) once gave 0.25, 1.5 and 0.75
@example([4, -1, 0, 3, 2], [5, 0], 1)
def test_integer_division_and_gcd_match_the_fraction_path(a, b, lead):
    # Integer inputs divide exactly by any lead: no binary float comes back,
    # and a monic divisor keeps them integers, as subtraction always does.
    b = (*b, lead)
    fa, fb = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    q, r = qp_divmod(a, b)
    assert (q, r) == reference_divmod(fa, fb)
    assert all(type(c) in (int, Fraction) for c in q + r)
    assert all(type(c) is int for c in qp_sub(a, b) + (q + r if lead == 1 else ()))
    g, u = qp_ext_gcd(a, b)
    assert (g, u) == qp_ext_gcd(fa, fb)
    assert all(type(c) in (int, Fraction) for c in g + u)


def reference_sturm_chain(coeffs):
    """Test-only copy of the Fraction Sturm chain p, p', -rem(p, p'), ..."""
    chain = [tuple(map(Fraction, coeffs))]
    chain.append(tuple(k * c for k, c in enumerate(chain[0]))[1:])
    while rem := reference_divmod(chain[-2], chain[-1])[1]:
        chain.append(tuple(-c for c in rem))
    return chain


def reference_root_count(coeffs, lo, hi):
    """Test-only Sturm count on the Fraction chain, by Horner on Fractions."""
    chain = reference_sturm_chain(coeffs)

    def variations(x):
        signs = [v > 0 for v in (fraction_horner(p, x) for p in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


@st.composite
def sturm_cases(draw):
    """A squarefree integer polynomial of degree 1 to 6, coefficients within
    +-50, and interval ends lo < hi among negatives, zero and its roots."""
    roots = []
    if draw(st.booleans()):  # (b x - a) * r(x), a known rational root a / b
        a, b = draw(st.integers(-5, 5)), draw(st.integers(1, 3))
        r = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
        assume(r[-1])
        coeffs = qp_mul((-a, b), r)
        roots.append(Fraction(a, b))
    else:
        coeffs = tuple(draw(st.lists(st.integers(-50, 50), min_size=2, max_size=7)))
        assume(coeffs[-1])
    assume(len(reference_sturm_chain(coeffs)[-1]) == 1)  # squarefree
    ends = st.one_of(
        st.sampled_from([Fraction(0), *roots]),
        st.fractions(-10, 0, max_denominator=30),
        st.fractions(-10, 10, max_denominator=30),
    )
    lo, hi = sorted((draw(ends), draw(ends)))
    assume(lo < hi)
    return coeffs, lo, hi


@given(sturm_cases())
def test_sturm_count_matches_the_fraction_chain(case):
    coeffs, lo, hi = case
    chain = sturm_chain(IntPolynomial(coeffs))
    assert all(type(c) is int for p in chain for c in p)
    # Each element is a positive multiple of the Fraction chain's.
    reference = reference_sturm_chain(coeffs)
    assert [len(p) for p in chain] == [len(p) for p in reference]
    for p, ref in zip(chain, reference):
        scale = p[-1] / ref[-1]
        assert scale > 0 and list(p) == [scale * c for c in ref]
    assert root_count(chain, lo, hi) == reference_root_count(coeffs, lo, hi)


@settings(deadline=None)  # the first call imports sympy
@given(sturm_cases())
def test_sturm_count_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    coeffs, lo, hi = case
    poly = sympy.Poly(coeffs[::-1], sympy.Symbol("x"))
    closed = poly.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                              sympy.Rational(hi.numerator, hi.denominator))
    # sympy counts on [lo, hi]; root_count on (lo, hi].
    at_lo = fraction_horner(coeffs, lo) == 0
    assert root_count(sturm_chain(IntPolynomial(coeffs)), lo, hi) == closed - at_lo
