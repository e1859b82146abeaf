import random
from collections import Counter
from fractions import Fraction

import pytest

from bcf.arith import numberfield, polynomials
from bcf.arith.numberfield import NumberField
from bcf.arith.polynomials import (
    IntPolynomial,
    bisect_once,
    eval_interval,
    qp_divmod,
    qp_ext_gcd,
    qp_mul,
    qp_primitive_int,
    qp_sub,
    refine_root,
)
from bcf.errors import NoSignChange
from bcf.expansion import expand

TRIBONACCI = IntPolynomial((-1, -1, -1, 1))
TETRANACCI = IntPolynomial((-1, -1, -1, -1, 1))
SQRT2 = IntPolynomial((-2, 0, 1))


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


def test_interval_eval_contains_point_values():
    rng = random.Random(7)
    for _ in range(50):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        lo = Fraction(rng.randint(-8, 8), rng.randint(1, 9))
        hi = lo + Fraction(rng.randint(0, 10), rng.randint(1, 7))
        a, b = eval_interval(coeffs, lo, hi)
        for t in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2, 3)):
            x = lo + t * (hi - lo)
            v = sum(Fraction(c) * x**k for k, c in enumerate(coeffs))
            assert a <= v <= b


def test_refine_root_sqrt2_quarter_width():
    lo, hi = refine_root(SQRT2, (Fraction(1), Fraction(2)), Fraction(1, 4))
    assert hi - lo <= Fraction(1, 4)
    assert Fraction(1) <= lo < hi <= Fraction(2)
    assert SQRT2.sign_at(lo) * SQRT2.sign_at(hi) < 0


def test_refine_root_tribonacci_constant():
    lo, hi = refine_root(TRIBONACCI, (Fraction(1), Fraction(2)), Fraction(1, 10**4))
    target = Fraction("1.83928675521416")
    assert lo <= target <= hi


def test_refine_root_tetranacci_ten_decimals():
    lo, hi = refine_root(TETRANACCI, (Fraction(1), Fraction(2)), Fraction(1, 10**12))
    # exact bisection value 1.927561975482925...; the commonly printed
    # 14-digit form of this constant is only reliable to ~11 decimals
    assert lo <= Fraction("1.927561975482925") <= hi
    assert abs(lo - Fraction("1.9275619754")) < Fraction(1, 10**10)


def test_refine_root_requires_sign_change():
    with pytest.raises(NoSignChange):
        refine_root(SQRT2, (Fraction(2), Fraction(3)), Fraction(1, 2))


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
        lo, hi = refine_root(poly, (lo0, hi0), Fraction(1, 1000))
        assert lo0 <= lo < hi <= hi0
        assert hi - lo <= Fraction(1, 1000)
        assert lo <= Fraction(root_num, root_den) <= hi


def test_refine_root_when_midpoint_is_a_root_of_several():
    cubic = IntPolynomial((0, -1, 0, 1))  # x^3 - x: roots -1, 0, 1
    # The midpoint 0 is a root and -1 lies left of it, so the shrunk
    # bracket's left sign is the opposite of the sign at -2.
    assert bisect_once(cubic, Fraction(-2), Fraction(2), -1) == (
        Fraction(-1, 2),
        Fraction(1, 2),
        1,
    )
    lo, hi = refine_root(cubic, (Fraction(-2), Fraction(2)), Fraction(1, 1000))
    assert lo < 0 < hi
    assert hi - lo <= Fraction(1, 1000)
    assert cubic.sign_at(lo) * cubic.sign_at(hi) < 0


def test_bisection_evaluates_only_the_midpoint(monkeypatch):
    theta = NumberField(IntPolynomial((-2, 0, 0, 1)), 1, 2).theta()  # 2^(1/3)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(polynomials, "qp_eval", counted("qp_eval", polynomials.qp_eval))
    monkeypatch.setattr(numberfield, "bisect_once", counted("bisect", numberfield.bisect_once))
    first = expand([theta], 60)
    # Every floor starts from the field's bracket, so the deepest floor
    # sets the count; a second run finds every floor settled already.
    assert calls == {"bisect": 10, "qp_eval": 10}
    calls.clear()
    assert expand([theta], 60) == first
    assert calls == {}


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
