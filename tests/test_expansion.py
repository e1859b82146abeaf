import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcf.arith import GuardedDecimal, IntPolynomial, NumberField
from bcf.errors import AmbiguousFloor, MixedFields, NegativeInput, UnsupportedOrder
from bcf.expansion import ExpansionState, expand, expand_step

TRIB = NumberField(IntPolynomial((-1, -1, -1, 1)), 1, 2)
MOORE = NumberField(IntPolynomial((-1, 0, -1, 1)), 1, 2)
GOLDEN = NumberField(IntPolynomial((-1, -1, 1)), 1, 2)
QUARTIC = NumberField(IntPolynomial((-2, 0, 0, 0, 1)), 1, 2)


def classic_cf(p: int, q: int) -> list[int]:
    """Euclidean-algorithm quotients: the classical continued fraction."""
    digits = []
    while True:
        a, r = divmod(p, q)
        digits.append(a)
        if r == 0:
            return digits
        p, q = q, r


def test_rational_m1_steps():
    digits, state = expand_step(ExpansionState((Fraction(7, 4),), 0))
    assert digits == (1,)
    assert state.values == (Fraction(4, 3),)
    digits, state = expand_step(state)
    assert digits == (1,)
    assert state.values == (Fraction(3),)
    digits, state = expand_step(state)
    assert digits == (3,)
    assert state is None


def test_rational_m1_expand_terminates():
    e = expand([Fraction(7, 4)], 10)
    assert e.digits == ((1, 1, 3),)
    assert e.terminated_at == 2
    assert len(e.states) == 3


def test_golden_ratio_all_ones():
    e = expand([GOLDEN.theta()], 5)
    assert e.digits == ((1, 1, 1, 1, 1),)
    assert not e.is_terminated


def test_tribonacci_classic_cf_prefix():
    e = expand([TRIB.theta()], 6)
    assert e.digits[0] == (1, 1, 5, 4, 2, 305)


def test_tribonacci_pair_is_fixed_point():
    th = TRIB.theta()
    beta = 1 + th.inverse()
    e = expand([th, beta], 12)
    assert e.digits == ((1,) * 12, (1,) * 12)
    assert e.recurrence == (0, 1)
    assert len(e.states) == 1


def test_fixed_point_stops_after_one_step(monkeypatch):
    calls = []

    def counted(state):
        calls.append(state.step)
        return expand_step(state)

    monkeypatch.setattr("bcf.expansion.expand_step", counted)
    th = TRIB.theta()
    e = expand([th, 1 + th.inverse()], 1000)
    assert calls == [0]
    assert e.digits == ((1,) * 1000, (1,) * 1000)
    assert e.recurrence == (0, 1)


def test_moore_pair_digits():
    th = MOORE.theta()
    beta = th.inverse()  # b = 0: beta = 0 + 1/alpha
    e = expand([th, beta], 10)
    assert e.digits[0] == (1,) * 10
    assert e.digits[1] == (0,) * 10


def test_quartic_triple_step_digits():
    th = QUARTIC.theta()
    state = ExpansionState((th, th**2, th**3), 0)
    seen = []
    for _ in range(7):
        digits, state = expand_step(state)
        seen.append(digits)
    assert seen == [
        (1, 1, 1),
        (1, 0, 0),
        (1, 0, 0),
        (2, 1, 1),
        (1, 0, 0),
        (1, 0, 0),
        (2, 1, 1),
    ]


def test_m1_matches_euclid_on_random_rationals():
    rng = random.Random(2024)
    for _ in range(100):
        q = rng.randint(2, 10**6 - 1)
        p = rng.randint(1, 4 * q)
        p_, q_ = Fraction(p, q).numerator, Fraction(p, q).denominator
        e = expand([Fraction(p, q)], 200)
        assert list(e.digits[0]) == classic_cf(p_, q_)
        assert e.is_terminated
        assert len(e) <= 2 * math.log2(q_) + 2


def test_determinism_including_states():
    th = TRIB.theta()
    a = expand([th, 1 + th.inverse()], 8)
    b = expand([th, 1 + th.inverse()], 8)
    assert a == b


def test_digit_bounds_on_exact_backends():
    th = QUARTIC.theta()
    e = expand([th, th**2, th**3], 14)
    for seq in e.digits:
        assert all(d >= 0 for d in seq)
    assert all(d >= 1 for d in e.digits[0][1:])


def test_mixed_backends_rejected():
    with pytest.raises(MixedFields):
        expand([Fraction(3, 2), GuardedDecimal.from_literal("1.5")], 3)
    with pytest.raises(MixedFields):
        expand([TRIB.theta(), MOORE.theta()], 3)


def test_negative_input_rejected():
    with pytest.raises(NegativeInput):
        expand([Fraction(-1, 2)], 3)
    with pytest.raises(NegativeInput):
        expand([TRIB.theta(), -TRIB.theta()], 3)


def test_integer_component_mid_run_continues():
    # (5/2, 3): second floor leaves f2 = 1/2 nonzero, first component integral
    e = expand([Fraction(3), Fraction(5, 2)], 3)
    assert e.digits[0][0] == 3
    assert e.digits[1][0] == 2
    assert len(e) > 1


def test_guarded_backend_expands_then_refuses():
    g = GuardedDecimal.from_literal("1.83928675521416", guard_digits=2)
    e = expand([g], 6)
    assert e.digits[0] == (1, 1, 5, 4, 2, 305)
    assert e.states is None
    with pytest.raises(AmbiguousFloor):
        expand([GuardedDecimal.from_literal("1.83928675521416", guard_digits=2)], 12)


BACKENDS = {
    "rational": (Fraction, lambda x: (x, x)),
    "field": (lambda q: TRIB.element([q]), lambda x: x.interval(Fraction(1, 10**40))),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_backends_answer_the_expansion_operators_alike(backend):
    make, bounds = BACKENDS[backend]

    def agrees(value, exact):
        lo, hi = bounds(value)
        return lo <= exact <= hi and hi - lo < Fraction(1, 10**30)

    values = [Fraction(7, 3), Fraction(5, 2), Fraction(1, 7), Fraction(22, 7)]
    for q, r in zip(values, values[1:]):
        x, y = make(q), make(r)
        n = math.floor(q)
        assert math.floor(x) == n
        assert agrees(x - n, q - n)
        assert (x - n == 0) is False
        assert agrees(1 / x, 1 / q)
        assert agrees(x * y, q * r)
    assert make(Fraction(3)) - 3 == 0


def test_guarded_order2_refuses_when_fraction_band_reaches_zero():
    # floor(x2) = 2 is certain, but the band of x2 - 2 is [0, 2/10^4]
    x1 = GuardedDecimal.from_literal("1.5000", guard_digits=1)
    x2 = GuardedDecimal(Fraction(20001, 10**4), Fraction(1, 10**4))
    with pytest.raises(AmbiguousFloor):
        expand_step(ExpansionState((x1, x2), 0))


def moore_refusal(alpha: str, beta: str) -> tuple[int, AmbiguousFloor]:
    """Steps a guard=2 Moore pair certifies, each checked against the
    exact expansion, and the refusal that ends them."""
    box = (GuardedDecimal.from_literal(alpha, 2), GuardedDecimal.from_literal(beta, 2))
    exact = expand([MOORE.theta(), MOORE.theta().inverse()], 200)
    state, steps = ExpansionState(box, 0), 0
    with pytest.raises(AmbiguousFloor) as exc:
        while True:
            digits, state = expand_step(state)
            assert digits == tuple(seq[steps] for seq in exact.digits)
            steps += 1
    return steps, exc.value


def test_guarded_order2_certifies_moore_prefix_then_refuses():
    assert moore_refusal("1.46557123187676802665", "0.68232780382801932737")[0] == 70


def test_guarded_order2_ten_digit_moore_pair_certifies_thirty():
    assert moore_refusal("1.4655712318", "0.6823278038")[0] == 30


def test_refusal_hint_is_an_estimate_not_a_bound():
    # Asked for "about 2" more digits, one more digit each already
    # certifies four more tuples.
    steps, refusal = moore_refusal("1.4655712318767680266", "0.68232780382801932736")
    assert (steps, refusal.extra_digits_hint) == (67, 2)
    assert "about 2 more trusted digit(s) may resolve it" in str(refusal)
    assert moore_refusal("1.46557123187676802665", "0.682327803828019327369")[0] == 71


def test_guarded_refusal_order_and_hint():
    # The corners must agree on every floor before a negative one is
    # reported: [-1/1000, 1/1000] straddles 0, [-0.501, -0.499] does not.
    with pytest.raises(AmbiguousFloor):
        expand([GuardedDecimal(0, Fraction(1, 1000))], 3)
    with pytest.raises(NegativeInput):
        expand([GuardedDecimal(Fraction(-1, 2), Fraction(1, 1000))], 3)
    g = GuardedDecimal.from_literal("1.83928675521416", guard_digits=2)
    with pytest.raises(AmbiguousFloor) as exc:
        expand([g], 9)
    assert exc.value.extra_digits_hint == 2
    assert "of integer 3; about 2 more trusted digit(s) may resolve it" in str(exc.value)
    assert len(expand([GuardedDecimal.from_literal("1.8392867552141611", 2)], 9)) == 9


def test_guarded_order_above_ten_is_refused_before_any_corner_step():
    box = [GuardedDecimal.from_literal("1.5000")] * 11  # 2^11 corners
    with pytest.raises(UnsupportedOrder):
        expand(box, 1)
    assert len(expand(box[:10], 1)) == 1


@st.composite
def guarded_boxes(draw):
    """An order 1-3 box of non-negative decimals, each drawn digit by digit
    below 4, with a guard radius of 1-9 units in the last place."""
    m = draw(st.integers(1, 3))
    scale = draw(st.integers(2, 10))
    box = []
    for _ in range(m):
        digits = draw(st.lists(st.integers(0, 9), min_size=scale, max_size=scale))
        radius = draw(st.integers(1, 9))
        mantissa = draw(st.integers(0, 3)) * 10**scale + int("".join(map(str, digits)))
        box.append(GuardedDecimal(Fraction(max(mantissa, radius), 10**scale), Fraction(radius, 10**scale)))
    return tuple(box)


def certify(box):
    """Step a guarded box to its refusal: (certified digits, refusing state)."""
    state, rows = ExpansionState(box, 0), []
    while True:
        try:
            digits, nxt = expand_step(state)
        except AmbiguousFloor:
            return rows, state
        rows.append(digits)
        state = nxt


@settings(max_examples=150, deadline=None)
@given(guarded_boxes(), st.lists(st.integers(0, 64), max_size=12))
@example((GuardedDecimal(Fraction(1495, 1000), Fraction(5, 1000)),), [])  # [1.49, 3/2]
def test_corner_certification_is_sound_and_optimal(box, weights):
    rows, refused = certify(box)
    bounds = [g.bounds() for g in box]
    corners = list(itertools.product(*bounds))
    # Sound: every corner and some rational interior points of the box
    # share the certified prefix and do not terminate inside it.
    interior = [
        [lo + (hi - lo) * Fraction(w, 64) for (lo, hi), w in zip(bounds, weights[i:])]
        for i in range(0, len(weights) - len(box) + 1, len(box))
    ]
    for point in corners + interior:
        if rows:
            exact = expand(point, len(rows))
            assert list(zip(*exact.digits)) == rows
            assert exact.terminated_at is None
    # Optimal: at the refusing step two corners, which are points of the
    # box, expand differently or one of them terminates.
    steps = [expand_step(ExpansionState(c, 0)) for c in refused.corners or corners]
    assert len({d for d, _ in steps}) > 1 or any(nxt is None for _, nxt in steps)


def test_depth_cap_is_not_an_error():
    e = expand([TRIB.theta()], 3)
    assert len(e) == 3
    assert not e.is_terminated
