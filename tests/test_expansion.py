import itertools
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcf.arith import GuardedDecimal, IntPolynomial, NumberField, numberfield
from bcf.closedform import allones_poly
from bcf import expansion
from bcf.errors import AmbiguousFloor, MixedFields, NegativeInput, ReducibleModulus
from bcf.expansion import ExpansionState, expand, expand_step
from bcf.expansion import _row_step as row_step

TRIB = NumberField(IntPolynomial((-1, -1, -1, 1)), 1, 2)
MOORE = NumberField(IntPolynomial((-1, 0, -1, 1)), 1, 2)
GOLDEN = NumberField(IntPolynomial((-1, -1, 1)), 1, 2)
QUARTIC = NumberField(IntPolynomial((-2, 0, 0, 0, 1)), 1, 2)
CBRT2 = NumberField(IntPolynomial((-2, 0, 0, 1)), 1, 2)
CBRT4 = NumberField(IntPolynomial((-4, 0, 0, 1)), 1, 2)
SPLIT = NumberField(IntPolynomial((6, -2, -3, 1)), 1, 2)  # (x - 3)(x^2 - 2), theta = sqrt 2
X2_MINUS_1 = NumberField(IntPolynomial((-1, 0, 1)), Fraction(1, 2), Fraction(3, 2))


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
    steps = []

    def counted(rows, digits):
        steps.append(digits)
        return row_step(rows, digits)

    monkeypatch.setattr("bcf.expansion._row_step", counted)
    th = TRIB.theta()
    e = expand([th, 1 + th.inverse()], 1000)
    assert steps == [(1, 1)]
    assert e.digits == ((1,) * 1000, (1,) * 1000)
    assert e.recurrence == (0, 1)


def test_irreducible_field_rows_need_no_exact_inverse(monkeypatch):
    # Floors come from dyadic enclosures and recurrence keys from integer
    # inverses modulo M at the field's key point, where a value prime to M
    # certifies a unit, so a field tuple expands without one rational gcd.
    th = CBRT2.theta()
    pair = [th, th * th]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(numberfield, "qp_ext_gcd", counted("qp_ext_gcd", numberfield.qp_ext_gcd))
    monkeypatch.setattr(
        numberfield.FieldElement, "inverse", counted("inverse", numberfield.FieldElement.inverse)
    )
    assert len(expand([th], 120)) == 120
    assert len(expand(pair, 120)) == 120
    assert calls == {}
    # Reading the states pays one inverse each.
    assert len(expand([th], 5).states) == 5
    assert calls["inverse"] == 5


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by integer Newton from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@pytest.mark.parametrize("k", [3, 4])
def test_deep_root_matches_the_classical_cf_of_a_dyadic_bracket(k):
    # 2^(1/k) lies in [t, t + 1] / 2^bits, and every number between two
    # rationals shares the prefix their continued fractions share.
    bits = 8000
    t = iroot(2 << (k * bits), k)
    lo, hi = classic_cf(t, 1 << bits), classic_cf(t + 1, 1 << bits)
    shared = next(i for i, (a, b) in enumerate(zip(lo, hi)) if a != b)
    assert shared > 2000
    field = NumberField(IntPolynomial((-2, *[0] * (k - 1), 1)), 1, 2)
    assert expand([field.theta()], 2000).digits == (tuple(lo[:2000]),)


def test_a_deep_run_encloses_about_once_per_precision(monkeypatch):
    # The run steps its enclosures with its digits and encloses afresh only
    # when they stop deciding, about twice per doubling of the precision.
    calls = Counter()

    def counted(*args):
        calls["scaled_box"] += 1
        return scaled_box(*args)

    scaled_box = numberfield.scaled_box
    monkeypatch.setattr(numberfield, "scaled_box", counted)
    field = NumberField(IntPolynomial((-2, 0, 0, 1)), 1, 2)
    assert len(expand([field.theta()], 1000)) == 1000
    assert calls["scaled_box"] <= 40


def test_a_field_run_makes_one_floor_call_per_digit_tuple(monkeypatch):
    calls = Counter()
    ratio_floors = NumberField.ratio_floors

    def counted(self, *args):
        calls["ratio_floors"] += 1
        return ratio_floors(self, *args)

    monkeypatch.setattr(NumberField, "ratio_floors", counted)
    field = NumberField(IntPolynomial((-2, 0, 0, 1)), 1, 2)
    assert len(expand([field.theta()], 200)) == 200
    assert calls["ratio_floors"] == 200


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
    # expand_step checks its tuple as expand does: the same error, worded alike.
    sqrt2 = NumberField(IntPolynomial((-2, 0, 1)), 1, 2).theta()
    dec = GuardedDecimal.from_literal("1.5")
    cases = [
        (MixedFields, (Fraction(3, 2), dec)),
        (MixedFields, (1, dec)),  # an int counts as a rational
        (MixedFields, (TRIB.theta(), MOORE.theta())),
        (MixedFields, (TRIB.theta(), sqrt2)),
        (MixedFields, (TRIB.theta(), Fraction(1, 2))),
        (TypeError, (1.5,)),
        (TypeError, (Fraction(1, 2), 1.5)),
        (ValueError, ()),
    ]
    for error, values in cases:
        with pytest.raises(error) as by_expand:
            expand(values, 3)
        with pytest.raises(error) as by_step:
            expand_step(ExpansionState(values, 0))
        assert str(by_step.value) == str(by_expand.value)
    with pytest.raises(ValueError):
        expand([Fraction(1, 2)], 0)
    assert expand([3, Fraction(5, 2)], 4) == expand([Fraction(3), Fraction(5, 2)], 4)
    assert expand_step(ExpansionState((3, Fraction(5, 2)), 0)) == (
        (3, 2),
        ExpansionState((Fraction(2), Fraction(0)), 1),
    )


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


def test_order1_box_refusal_names_the_step_of_the_run():
    # The run certifies steps 0-7 by its corner Euclids and hands step 8 to
    # the generic step, which refuses there.
    g = GuardedDecimal.from_literal("1.83928675521416", guard_digits=2)
    assert len(expand([g], 8)) == 8
    with pytest.raises(AmbiguousFloor) as exc:
        expand([g], 40)
    assert (exc.value.step, exc.value.component, exc.value.extra_digits_hint) == (8, 1, 2)
    assert str(exc.value).startswith("component 1 at step 8: value 2.82032583812 is within")


def test_first_digit_invariant_checks_every_digit_of_a_run(monkeypatch):
    # A run whose second tuple breaks the invariant trips it at that step.
    monkeypatch.setattr(expansion, "_euclid", lambda rows, limit: ([(2,), (0,)], ((1,), (1,))))
    with pytest.raises(AssertionError, match="first-sequence digit 0 < 1 at step 1"):
        expand([Fraction(7, 4)], 5)


@st.composite
def order1_values(draw):
    """A rational (integers, 0 and negatives included) or a guarded box
    [lo, hi] at scale 10^-k, k = 0 giving integer ends; boxes may straddle
    an integer or 0 and so refuse at step 0, or refuse later."""
    k = draw(st.integers(0, 30))
    if draw(st.booleans()):
        q = draw(st.sampled_from([1, 10**k]) | st.integers(1, 10**k))
        return Fraction(draw(st.integers(-3 * q, 5 * q)), q)
    s = 10**k
    lo = draw(st.integers(-2 * s, 5 * s))
    width = draw(st.integers(1, 10 ** draw(st.integers(0, k))))
    return GuardedDecimal(Fraction(2 * lo + width, 2 * s), Fraction(width, 2 * s))


def expand_outcome(run):
    """(digit tuples, terminated_at) of ``run()``, or its refusal's class and message."""
    try:
        return run()
    except (AmbiguousFloor, NegativeInput) as exc:
        return type(exc), str(exc)


def by_expand(value, depth):
    e = expand([value], depth)
    return list(zip(*e.digits)), e.terminated_at


def by_steps(value, depth):
    state, rows = ExpansionState((value,), 0), []
    while state is not None and len(rows) < depth:
        digits, state = expand_step(state)
        rows.append(digits)
    return rows, len(rows) - 1 if state is None else None


@settings(max_examples=300, deadline=None)
@given(order1_values(), st.integers(1, 80))
@example(Fraction(0), 5)
@example(Fraction(7), 5)
@example(Fraction(-1, 3), 5)
@example(GuardedDecimal(Fraction(-1, 2), Fraction(1, 2)), 5)  # [-1, 0]
@example(GuardedDecimal(Fraction(3, 2), Fraction(1, 2)), 5)  # [1, 2]
@example(GuardedDecimal(Fraction(1, 2), Fraction(1, 1000)), 5)
@example(GuardedDecimal.from_literal("1.83928675521416", 2), 40)  # refuses at step 8
def test_order1_runs_match_a_chain_of_steps(value, depth):
    # expand takes order-1 inputs in runs; expand_step takes one step.
    assert expand_outcome(lambda: by_expand(value, depth)) == expand_outcome(
        lambda: by_steps(value, depth)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**20), 10**80), st.integers(1, 10**60))
@example(0, 1)
@example(10**40, 1)
@example(-1, 10**30)
def test_order1_rationals_match_the_divmod_oracle(p, q):
    if p < 0:
        with pytest.raises(NegativeInput, match="component 1 at step 0 has negative floor"):
            expand([Fraction(p, q)], 10)
        return
    e = expand([Fraction(p, q)], 10**4)
    assert list(e.digits[0]) == classic_cf(p, q)
    assert e.terminated_at == len(e) - 1


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


def certify(box) -> list[tuple[int, ...]]:
    """Step a guarded box to its refusal: the certified digit tuples."""
    state, rows = ExpansionState(box, 0), []
    while True:
        try:
            digits, state = expand_step(state)
        except AmbiguousFloor:
            return rows
        rows.append(digits)


def allones_box(m: int, places: int = 20) -> tuple[GuardedDecimal, ...]:
    """The ``places``-digit (guard 2) truncations of the order-m all-ones
    tuple: x_1 = theta, x_(k+1) = theta*(x_k - 1), theta > 1 the root of
    allones_poly(m)."""
    theta = x = NumberField(allones_poly(m), 1, 2).theta()
    box = []
    for _ in range(m):
        lo, hi = x.interval(Fraction(1, 10 ** (places + 10)))
        mantissa = math.floor(lo * 10**places)
        assert mantissa == math.floor(hi * 10**places)
        box.append(GuardedDecimal.from_parts(mantissa, places, 2))
        x = theta * (x - 1)
    return tuple(box)


@pytest.mark.parametrize("m, tuples", [(10, 42), (12, 41), (20, 35)])
def test_guarded_high_orders_certify_all_ones_then_refuse(m, tuples):
    # The forms step costs O(m^2), not 2^m corner steps: order 20 is fast.
    box = allones_box(m)
    start = time.perf_counter()
    rows = certify(box)
    assert time.perf_counter() - start < 1
    assert rows == [(1,) * m] * tuples


def test_a_box_builds_its_forms_once(monkeypatch):
    # A box's state carries its forms, so stepping it does not rebuild them.
    built = []

    def counted(box):
        built.append(box)
        return box_forms(box)

    box_forms = expansion._box_forms
    monkeypatch.setattr(expansion, "_box_forms", counted)
    state = ExpansionState(allones_box(3), 0)
    for _ in range(30):
        digits, state = expand_step(state)
        assert digits == (1, 1, 1)
    assert len(built) == 1


RUNS = {
    "rational, order 1": ([Fraction(355, 113)], 50),
    "rational, order 2": ([Fraction(17, 5), Fraction(9, 7)], 50),
    "field, order 1, periodic": ([GOLDEN.theta()], 40),
    "field, order 1": ([CBRT2.theta()], 40),
    "field, order 2, periodic": ([CBRT2.theta(), CBRT2.theta() ** 2], 40),
    "field, order 2": ([CBRT4.theta(), CBRT4.theta() ** 2], 40),
    "box, order 1": ([GuardedDecimal.from_literal("1.8392867552141611", 2)], 9),
    "box, order 2": (allones_box(2), 10),
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_expand_takes_one_run(monkeypatch, case):
    # Each backend's run owns its loop, and a field run looks its own states
    # up, so expand calls the run once and only assembles what it returns.
    values, depth = RUNS[case]
    want = expand(values, depth)
    assert (want.recurrence is not None) == case.endswith("periodic")
    calls, start = [], expansion._start

    def counted_start(*args):
        rows, field, run = start(*args)
        return rows, field, lambda *a: calls.append(a[1:]) or run(*a)

    monkeypatch.setattr(expansion, "_start", counted_start)
    got = expand(values, depth)
    assert calls == [(0, depth)]
    assert (got.digits, got.terminated_at, got.recurrence) == (
        want.digits, want.terminated_at, want.recurrence
    )


@pytest.mark.parametrize(
    "values, depth, message",
    [([SPLIT.theta() ** 2], d, "modulus x^3 - 3*x^2 - 2*x + 6 has factor x^2 - 2") for d in (1, 2, 3)]
    + [([X2_MINUS_1.theta()], 1, "modulus x^2 - 1 has factor x - 1")],
)
def test_a_zero_divisor_state_refuses_at_any_depth(values, depth, message):
    # The floor is exactly an integer, so the state after step 0 has a v_0 of
    # value 0 that is not the zero residue.  The run keys the state after its
    # last step too, so even a run of one step refuses.
    with pytest.raises(ReducibleModulus, match=f"^{re.escape(message)}$"):
        expand(values, depth)


@settings(max_examples=150, deadline=None)
@given(guarded_boxes(), st.lists(st.integers(0, 64), max_size=12))
@example((GuardedDecimal(Fraction(1495, 1000), Fraction(5, 1000)),), [])  # [1.49, 3/2]
def test_corner_certification_is_sound_and_optimal(box, weights):
    rows = certify(box)
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
    n = len(rows)
    tails = [expand(c, n + 1) for c in corners]
    assert len({tuple(seq[n] for seq in e.digits) for e in tails}) > 1 or any(
        e.terminated_at == n for e in tails
    )


def corner_oracle(box, depth):
    """The rule the guarded step must match, on the 2^m exact corners of the
    box: refuse by the floor of the corners' hull when they floor apart,
    naming the step and component, then step each corner exactly (which
    refuses a negative floor) and refuse when one terminates."""
    corners = list(itertools.product(*(g.bounds() for g in box)))
    for step in range(depth):
        for k in range(len(box)):
            lo, hi = min(c[k] for c in corners), max(c[k] for c in corners)
            if math.floor(lo) != math.floor(hi):
                try:
                    GuardedDecimal((lo + hi) / 2, (hi - lo) / 2).floor()
                except AmbiguousFloor as exc:
                    where = f"component {k + 1} at step {step}"
                    raise AmbiguousFloor(f"{where}: {exc}", exc.extra_digits_hint, step, k + 1)
        steps = [expand_step(ExpansionState(c, step)) for c in corners]
        if any(nxt is None for _, nxt in steps):
            raise AmbiguousFloor(
                f"component {len(box)} at step {step} may have fractional part "
                "exactly zero: the guard band reaches zero; supply more trusted digits",
                step=step,
                component=len(box),
            )
        yield steps[0][0]
        corners = [nxt.values for _, nxt in steps]


def guarded_steps(box, depth):
    state = ExpansionState(box, 0)
    for _ in range(depth):
        digits, state = expand_step(state)
        yield digits


def run_to_refusal(steps):
    """(certified digit tuples, refusal class, message, hint, step, component)."""
    rows = []
    try:
        for digits in steps:
            rows.append(digits)
    except (AmbiguousFloor, NegativeInput) as exc:
        where = [getattr(exc, name, None) for name in ("extra_digits_hint", "step", "component")]
        return rows, type(exc), str(exc), *where
    return rows, None, None, None, None, None


@settings(max_examples=300, deadline=None)
@given(guarded_boxes(), st.integers(-1, 0))
@example((GuardedDecimal(Fraction(1, 2), Fraction(1, 1000)),), -1)  # negative floor
@example((GuardedDecimal(Fraction(1, 2), Fraction(1, 2)),), 0)  # [0, 1] straddles 1
def test_guarded_step_matches_the_corner_oracle(box, shift):
    box = (GuardedDecimal(box[0].value + shift, box[0].radius),) + box[1:]
    expected = run_to_refusal(corner_oracle(box, 80))
    assert run_to_refusal(guarded_steps(box, 80)) == expected


def test_depth_cap_is_not_an_error():
    e = expand([TRIB.theta()], 3)
    assert len(e) == 3
    assert not e.is_terminated
