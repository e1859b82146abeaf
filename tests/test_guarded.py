from fractions import Fraction
from itertools import product

import pytest

from bcf.arith import GuardedDecimal
from bcf.errors import AmbiguousFloor
from bcf.expansion import ExpansionState, expand, expand_step


def test_literal_parsing():
    g = GuardedDecimal.from_literal("1.83928675521416", guard_digits=2)
    assert g.value == Fraction("1.83928675521416")
    assert g.radius == Fraction(100, 10**14)
    assert (g.mantissa, g.scale, g.guard_digits) == (183928675521416, 14, 2)
    assert GuardedDecimal.from_literal("-3.5").value == Fraction(-7, 2)
    assert GuardedDecimal.from_literal("42").value == 42


def test_literal_rejects_garbage():
    with pytest.raises(ValueError):
        GuardedDecimal.from_literal("1e-9")
    with pytest.raises(ValueError):
        GuardedDecimal.from_literal("1.2.3")


def test_guard_digits_must_be_positive():
    with pytest.raises(ValueError):
        GuardedDecimal.from_parts(15, 1, 0)


def test_floor_clear_of_integers():
    g = GuardedDecimal.from_literal("1.83928675521416", guard_digits=2)
    assert g.floor() == 1
    assert GuardedDecimal(g.value - 1, g.radius).floor() == 0


def test_floor_refused_inside_guard_band():
    g = GuardedDecimal.from_parts(2_000_000_3, 7, 2)  # 2.0000003 +/- 1e-5
    with pytest.raises(AmbiguousFloor) as exc:
        g.floor()
    assert exc.value.extra_digits_hint is not None
    assert exc.value.extra_digits_hint >= 1


def test_floor_refused_when_possibly_integral():
    g = GuardedDecimal.from_literal("2.000000", guard_digits=1)
    with pytest.raises(AmbiguousFloor) as exc:
        g.floor()
    assert exc.value.extra_digits_hint is None


def corner_steps(box):
    """The guarded step's digits, checked against the exact step of every
    corner of the box, and the corners' next value tuples."""
    digits, _ = expand_step(ExpansionState(box, 0))
    steps = [expand_step(ExpansionState(c, 0)) for c in product(*(g.bounds() for g in box))]
    assert {d for d, _ in steps} == {digits}
    return digits, [nxt.values for _, nxt in steps]


def test_reciprocal_propagates_band():
    g = GuardedDecimal.from_literal("0.500", guard_digits=1)  # 0.5 +/- 0.01
    digits, corners = corner_steps((g,))
    assert digits == (0,)
    lo, hi = sorted(corner[0] for corner in corners)
    assert lo <= 2 <= hi
    assert lo == Fraction(100, 51)
    assert hi == Fraction(100, 49)


def test_reciprocal_refused_near_zero():
    g = GuardedDecimal.from_literal("0.0001", guard_digits=1)
    with pytest.raises(AmbiguousFloor):
        expand([g], 2)


def test_divide_interval():
    num = GuardedDecimal.from_literal("0.100", guard_digits=1)  # [0.09, 0.11]
    den = GuardedDecimal.from_literal("0.200", guard_digits=1)  # [0.19, 0.21]
    digits, corners = corner_steps((num, den))
    assert digits == (0, 0)
    quotients = [corner[1] for corner in corners]  # f1 / f2 at each corner
    assert min(quotients) == Fraction(9, 21)
    assert max(quotients) == Fraction(11, 19)
