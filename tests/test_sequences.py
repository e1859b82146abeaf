from fractions import Fraction

import pytest

from bcf.arith import NumberField
from bcf.closedform import allones_poly
from bcf.sequences import kbonacci


def test_tribonacci_terms():
    assert kbonacci(3, 10) == [0, 0, 1, 1, 2, 4, 7, 13, 24, 44]


def test_fibonacci_terms():
    assert kbonacci(2, 8) == [0, 1, 1, 2, 3, 5, 8, 13]


def test_tetranacci_terms():
    assert kbonacci(4, 10) == [0, 0, 0, 1, 1, 2, 4, 8, 15, 29]


def test_recurrence_holds_everywhere():
    for k in (2, 3, 4, 5):
        terms = kbonacci(k, 30)
        for i in range(k, 30):
            assert terms[i] == sum(terms[i - k : i])
        assert all(terms[i] < terms[i + 1] for i in range(k, 29))


def test_argument_validation():
    with pytest.raises(ValueError):
        kbonacci(1, 5)
    with pytest.raises(ValueError):
        kbonacci(3, 2)


def term_ratio(k: int, depth: int = 80) -> Fraction:
    terms = kbonacci(k, depth)
    return Fraction(terms[-1], terms[-2])


def test_ratio_limits_hit_known_constants():
    assert abs(term_ratio(3) - Fraction("1.83928675521416")) < Fraction(1, 10**9)
    assert abs(term_ratio(2) - Fraction("1.6180339887")) < Fraction(1, 10**9)
    assert abs(term_ratio(4) - Fraction("1.9275619754")) < Fraction(1, 10**9)


def test_ratio_limit_matches_allones_root():
    for k in (2, 3, 4, 5):
        tol = Fraction(1, 10**10)
        lo, hi = NumberField(allones_poly(k - 1), 1, 2).theta().interval(tol)
        assert abs(term_ratio(k) - (lo + hi) / 2) < 2 * tol + (hi - lo)
