import math
import random
from fractions import Fraction
from itertools import cycle, islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcf.arith import FieldElement, GuardedDecimal, IntPolynomial, NumberField, numberfield
from bcf.closedform import allones_poly, alpha_cubic
from bcf.errors import BcfError, NegativeInput
from bcf.expansion import ExpansionState, expand, expand_step
from bcf.expansion import _row_step as row_step
from bcf.periodicity import (
    APPARENT,
    NONE_WITHIN_DEPTH,
    PROVEN,
    PeriodReport,
    apparent_digit_period,
    period_report,
)

SQRT2 = NumberField(IntPolynomial((-2, 0, 1)), 1, 2)
TRIB = NumberField(IntPolynomial((-1, -1, -1, 1)), 1, 2)
QUARTIC = NumberField(IntPolynomial((-2, 0, 0, 0, 1)), 1, 2)
CBRT2 = NumberField(IntPolynomial((-2, 0, 0, 1)), 1, 2)


def unfused_expansion(values, max_depth):
    """Test-only oracle, the two-pass loop: step expand_step to
    ``max_depth`` or termination, snapshot every state, then take the first
    repeated state by dict.  Returns (digits, terminated_at, witness, states)."""
    state, rows, states, terminated_at = ExpansionState(tuple(values), 0), [], [], None
    for i in range(max_depth):
        states.append(state)
        digits, state = expand_step(state)
        rows.append(digits)
        if state is None:
            terminated_at = i
            break
    seen, witness = {}, None
    for j, snapshot in enumerate(states):
        i = seen.setdefault(snapshot.values, j)
        if i != j:
            witness = (i, j)
            break
    return tuple(zip(*rows)), terminated_at, witness, states


def test_sqrt2_preperiod_one_period_one():
    e = expand([SQRT2.theta()], 10)
    assert e.digits[0] == (1,) + (2,) * 9
    r = period_report(e)
    assert (r.status, r.preperiod, r.period) == (PROVEN, 1, 1)
    assert r.witness == (1, 2)


def test_tribonacci_pair_pure_period_one():
    th = TRIB.theta()
    e = expand([th, 1 + th.inverse()], 10)
    r = period_report(e)
    assert (r.status, r.preperiod, r.period) == (PROVEN, 0, 1)


def test_quartic_triple_preperiod_one_period_three():
    th = QUARTIC.theta()
    e = expand([th, th**2, th**3], 20)
    r = period_report(e)
    assert (r.status, r.preperiod, r.period) == (PROVEN, 1, 3)


def test_none_within_depth():
    e = expand([TRIB.theta()], 6)  # classic CF of the cubic never repeats states
    r = period_report(e)
    assert r.status == NONE_WITHIN_DEPTH
    assert not r.found


# Proven (preperiod, period) of (cbrt N, cbrt N^2) at depth 300, for
# N = D^3 + d with D <= 6 and 1 <= d <= 3D, plus N = 7; every other such N
# shows no recurrence within that depth.
CBRT_PAIR_PERIODS = {
    2: (1, 2), 3: (6, 17), 7: (1, 15), 9: (8, 10), 10: (10, 22), 12: (5, 10),
    28: (10, 10), 65: (8, 10), 66: (8, 10), 67: (8, 10), 68: (10, 22),
    126: (23, 10), 130: (12, 10), 217: (8, 10), 218: (3, 13), 219: (8, 10),
    220: (3, 15), 228: (6, 10), 234: (1, 12),
}


@pytest.mark.parametrize(
    "n", [7] + [d**3 + k for d in range(1, 7) for k in range(1, 3 * d + 1)]
)
def test_cube_root_pair_period_table(n):
    d = max(d for d in range(1, 7) if d**3 < n)  # cbrt n lies in (d, d + 1)
    theta = NumberField(IntPolynomial((-n, 0, 0, 1)), d, d + 1).theta()
    r = period_report(expand([theta, theta**2], 300))
    if n in CBRT_PAIR_PERIODS:
        assert (r.status, (r.preperiod, r.period)) == (PROVEN, CBRT_PAIR_PERIODS[n])
    else:
        assert r.status == NONE_WITHIN_DEPTH


def test_period_report_proves_exact_and_scans_inexact():
    exact = expand([SQRT2.theta()], 10)
    assert period_report(exact) == PeriodReport(PROVEN, 1, 1, (1, 2))
    guarded = expand([GuardedDecimal.from_literal("1.41421356237309504880", guard_digits=2)], 12)
    assert guarded.states is None
    assert period_report(guarded) == apparent_digit_period(guarded.digits)
    assert period_report(guarded).status == APPARENT


def test_proven_period_replays_from_witness_state():
    th = QUARTIC.theta()
    e = expand([th, th**2, th**3], 20)
    r = period_report(e)
    q = r.period
    replay = expand(e.states[r.preperiod].values, 2 * q + 1)
    for seq in replay.digits:
        for t in range(len(replay) - q):
            assert seq[t] == seq[t + q]


def test_minimality_by_exhaustive_pair_scan():
    th = QUARTIC.theta()
    values = [th, th**2, th**3]
    r = period_report(expand(values, 20))
    states = unfused_expansion(values, 20)[3]
    hits = [
        (i, j)
        for i in range(len(states))
        for j in range(i + 1, len(states))
        if states[i].values == states[j].values
    ]
    best = min(hits, key=lambda ij: (ij[1] - ij[0], ij[0]))
    assert best == (r.preperiod, r.preperiod + r.period)


def test_digit_periodicity_holds_on_report():
    e = expand([SQRT2.theta()], 12)
    r = period_report(e)
    for seq in e.digits:
        for t in range(r.preperiod, len(e) - r.period):
            assert seq[t] == seq[t + r.period]


def period1_pair(a, b):
    th = NumberField(alpha_cubic(a, b), a, a + b + 1).theta()
    return [th, b + th.inverse()]


def all_ones(m):
    th = NumberField(allones_poly(m), 1, 2).theta()
    values = [th]
    for _ in range(m - 1):
        values.append(th * (values[-1] - 1))
    return values


def quartic_triple(n):
    """(θ, θ², θ³) for θ = n^(1/4), 1 < n < 16."""
    th = NumberField(IntPolynomial((-n, 0, 0, 0, 1)), 1, 2).theta()
    return [th, th**2, th**3]


@st.composite
def small_elements(draw):
    """Order 1-2 tuples of random non-negative elements of Q(sqrt 2) or
    Q(2^(1/3)) with small coordinates; zeros terminate at once."""
    field = draw(st.sampled_from([SQRT2, CBRT2]))
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    values = []
    for _ in range(draw(st.integers(1, 2))):
        x = field.element(draw(st.lists(coord, min_size=1, max_size=field.degree)))
        values.append(-x if math.floor(x) < 0 else x)
    return values


expansion_inputs = st.one_of(
    st.integers(1, 5).flatmap(lambda a: st.integers(0, a).map(lambda b: period1_pair(a, b))),
    st.integers(1, 3).map(all_ones),
    st.sampled_from([2, 3, 5, 7, 11]).map(quartic_triple),
    small_elements(),
)


@settings(max_examples=80, deadline=None)
@given(expansion_inputs, st.integers(1, 40))
@example(quartic_triple(2), 4)  # witness (1, 4) lies just past the depth
@example(quartic_triple(2), 5)
@example(period1_pair(2, 1), 1)
def test_expand_matches_unfused_oracle(values, depth):
    digits, terminated_at, witness, states = unfused_expansion(values, depth)
    e = expand(values, depth)
    assert e.digits == digits
    assert e.terminated_at == terminated_at
    assert e.recurrence == witness
    assert e.states == tuple(states[: witness[1] if witness else None])


def test_apparent_scan_on_digits():
    digits = ((1, 1, 2, 1, 2, 1, 2), (0, 1, 1, 1, 1, 1, 1))
    r = apparent_digit_period(digits)
    assert r.status == APPARENT
    assert (r.preperiod, r.period) == (1, 2)


def test_apparent_scan_requires_two_cycles():
    digits = ((1, 2, 3, 4, 5, 6),)
    assert apparent_digit_period(digits).status == NONE_WITHIN_DEPTH


def slow_apparent_period(digits):
    """Reference scan: every (q, p) pair in order, checking the whole suffix."""
    n = len(digits[0])
    for q in range(1, n // 2 + 1):
        for p in range(0, n - 2 * q + 1):
            if all(seq[t] == seq[t + q] for seq in digits for t in range(p, n - q)):
                return (APPARENT, p, q)
    return (NONE_WITHIN_DEPTH, 0, 0)


def test_apparent_scan_matches_reference_on_random_tables():
    rng = random.Random(5)
    for _ in range(1500):
        m, n = rng.randint(1, 3), rng.randint(0, 24)
        cycle = [[rng.randint(0, 2) for _ in range(rng.randint(1, 5))] for _ in range(m)]
        head = rng.randint(0, n)
        digits = tuple(
            tuple(rng.randint(0, 2) if t < head else c[t % len(c)] for t in range(n))
            for c in cycle
        )
        r = apparent_digit_period(digits)
        assert (r.status, r.preperiod, r.period) == slow_apparent_period(digits), digits


def operator_expansion(values, max_depth):
    """Test-only oracle, the operator loop: step the value tuple by
    ``math.floor``, ``-``, ``== 0`` and ``1 /``, look each field state up in a
    dict, stop at the first repeat.  Returns (digits, terminated_at,
    witness, states)."""
    values, rows, states = tuple(values), [], []
    seen, terminated_at, witness = {}, None, None
    for i in range(max_depth):
        if isinstance(values[0], FieldElement) and seen.setdefault(values, i) != i:
            witness = (seen[values], i)
            break
        states.append(ExpansionState(values, i))
        digits = tuple(math.floor(v) for v in values)
        for k, d in enumerate(digits):
            if d < 0:
                raise NegativeInput(
                    f"component {k + 1} at step {i} has negative floor {d}; "
                    "only non-negative reals are expandable"
                )
        fracs = [v - d for v, d in zip(values, digits)]
        rows.append(digits)
        if fracs[-1] == 0:
            terminated_at = i
            break
        inv = 1 / fracs[-1]
        values = (inv, *(f * inv for f in fracs[:-1]))
    if witness is not None:
        rows += islice(cycle(rows[witness[0] :]), max_depth - len(rows))
    return tuple(zip(*rows)), terminated_at, witness, tuple(states)


def outcome(run, values, depth):
    try:
        return run(values, depth)
    except BcfError as exc:
        return type(exc), str(exc)


def row_outcome(values, depth):
    e = expand(values, depth)
    return e.digits, e.terminated_at, e.recurrence, e.states


NEG_SQRT2 = NumberField(IntPolynomial((-2, 0, 1)), -2, -1)  # theta = -sqrt(2)
NEG_GOLDEN = NumberField(IntPolynomial((-1, -1, 1)), -1, Fraction(1, 2))  # theta < 0 < hi
GOLDEN_CONJ = NumberField(IntPolynomial((-1, 1, 1)), -1, 1)  # lo < 0 < theta
CUBIC_ZERO = NumberField(IntPolynomial((-1, 1, 0, 1)), -1, 1)  # x^3 + x - 1, lo < 0
NEG_CBRT2 = NumberField(IntPolynomial((2, 0, 0, 1)), -2, -1)  # theta = -cbrt 2
SPLIT = NumberField(IntPolynomial((6, -2, -3, 1)), 1, 2)  # (x - 3)(x^2 - 2), theta = sqrt 2
X2_MINUS_1 = NumberField(IntPolynomial((-1, 0, 1)), Fraction(1, 2), Fraction(3, 2))


@st.composite
def field_tuples(draw, fields):
    """Order 1-3 tuples of small elements of one of ``fields``, each negated
    when its floor is negative (a rare negative floor is left to refuse)."""
    field = draw(st.sampled_from(fields))
    coord = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    values = []
    for _ in range(draw(st.integers(1, 3))):
        x = field.element(draw(st.lists(coord, min_size=1, max_size=field.degree)))
        values.append(-x if draw(st.integers(0, 9)) and math.floor(x) < 0 else x)
    return values


rational_tuples = st.lists(
    st.builds(Fraction, st.integers(-3, 10**6), st.integers(1, 10**4)), min_size=1, max_size=3
)
oracle_inputs = st.one_of(
    rational_tuples,
    expansion_inputs,
    field_tuples([NEG_SQRT2, NEG_GOLDEN, GOLDEN_CONJ, CUBIC_ZERO]),
    field_tuples([SPLIT, X2_MINUS_1]),
)


def in_fresh_field(values):
    """The same values in a new field of the same modulus and root, which
    chooses its key point anew (a field keeps the first one it chose)."""
    if not isinstance(values[0], FieldElement):
        return values
    field = values[0].field
    fresh = NumberField(field.modulus, *field.root_interval)
    return [fresh.element(x.coords) for x in values]


@pytest.mark.parametrize("key_bits", [None, 1])
@settings(max_examples=120, deadline=None)
@given(oracle_inputs, st.integers(1, 30))
@example([SPLIT.theta() ** 2], 5)  # floor 2 exactly, then the factor x^2 - 2
@example([X2_MINUS_1.theta()], 3)  # floor 1 exactly, then the factor x - 1
@example([-NEG_SQRT2.theta()], 12)  # sqrt 2 on a negative theta
@example([NEG_GOLDEN.theta() + 1], 12)
@example(quartic_triple(2), 20)
@example([NEG_CBRT2.theta() + 2], 300)  # deep runs on stepped enclosures
@example([CUBIC_ZERO.theta()], 300)
def test_expand_matches_the_operator_oracle(key_bits, values, depth):
    # One key bit starts the key point at H + 3, where M is as small as the
    # search allows (11 for x^2 - x - 1, 23 for x^2 - 2), so key collisions,
    # exact confirmations and states without a key are common.
    values = in_fresh_field(values)
    with mock.patch.object(numberfield, "_KEY_BITS", key_bits or numberfield._KEY_BITS):
        assert outcome(row_outcome, values, depth) == outcome(operator_expansion, values, depth)


@pytest.mark.parametrize(
    "modulus, coords, depth",
    [
        ((-3, 0, 1), [(0, 1)], 12),  # sqrt 3: witness (1, 3)
        ((-2, 0, 0, 0, 1), [(0, 1), (0, 0, 1), (0, 0, 0, 1)], 20),  # witness (1, 4)
        ((-1, -1, -1, 1), [(0, 1), (1, 1, 1)], 20),  # witness (5, 14)
        ((-7, 0, 0, 1), [(0, 1), (0, 0, 1)], 60),  # witness (1, 16)
    ],
)
def test_a_cycle_whose_first_state_has_no_key(modulus, coords, depth):
    # Move the key point to a small prime M dividing w_0 of the first state
    # of the cycle, so that state has no key: the state that closes the
    # cycle must still find it, and the witness stays the oracle's.
    def at(v, n):
        return sum(c * n**k for k, c in enumerate(v))

    probe = NumberField(IntPolynomial(modulus), 1, 2)
    e = expand([probe.element(c) for c in coords], depth)
    rows = e.start[0]
    for digits in islice(zip(*e.digits), e.recurrence[0]):
        rows = row_step(rows, digits)
    q, n = next(
        (q, n)
        for q in range(2, 100)
        if all(q % r for r in range(2, q))
        for n in range(q)
        if at(modulus, n) % q == 0 and at(rows[0], n) % q == 0
    )
    field = NumberField(IntPolynomial(modulus), 1, 2)
    values = [field.element(c) for c in coords]
    with mock.patch.object(numberfield, "_key_point", lambda coeffs: (n, q, True)):
        assert field.ratio_key(rows) is None
        got = row_outcome(values, depth)
    assert got == operator_expansion(values, depth)
    assert got[2] == e.recurrence


@pytest.mark.parametrize("key_bits", [None, 1])
@pytest.mark.parametrize(
    "values, depth",
    [
        ([CBRT2.theta(), CBRT2.theta() ** 2], 200),
        ([TRIB.theta(), 1 + TRIB.theta().inverse()], 10),
        (quartic_triple(2), 20),
        ([CUBIC_ZERO.theta()], 200),
        ([TRIB.element((0, 1)), TRIB.element((1, 1, 1))], 20),  # witness (5, 14)
    ],
)
def test_every_state_is_keyed_as_its_exact_rows(key_bits, values, depth):
    # The run keys each state from images it steps along with the rows; the
    # key must be the one its exact rows give.  One key bit makes M small,
    # so states without a key occur too.
    values = in_fresh_field(values)
    keyed = NumberField.ratio_key
    keys = []

    def ratio_key(field, rows, images=None):
        keys.append(keyed(field, rows, images))
        assert keys[-1] == keyed(field, rows)
        return keys[-1]

    with mock.patch.object(numberfield, "_KEY_BITS", key_bits or numberfield._KEY_BITS):
        with mock.patch.object(NumberField, "ratio_key", ratio_key):
            e = expand(values, depth)
    assert len(keys) == (e.recurrence[1] if e.recurrence else depth) + 1


@pytest.mark.parametrize("dropped", [0, 1])
@pytest.mark.parametrize(
    "modulus, coords, depth",
    [
        ((-2, 0, 0, 0, 1), [(0, 1), (0, 0, 1), (0, 0, 0, 1)], 20),  # witness (1, 4)
        ((-1, -1, -1, 1), [(0, 1), (1, 1, 1)], 20),  # witness (5, 14)
    ],
)
def test_a_state_without_a_key_is_compared_with_every_other(modulus, coords, depth, dropped):
    # Take the key of one end of the cycle away and keep the other's: a
    # keyless state closing the cycle must look at every held state, and a
    # keyed one at the keyless states too.
    values = [NumberField(IntPolynomial(modulus), 1, 2).element(c) for c in coords]
    witness = expand(values, depth).recurrence
    keyed = NumberField.ratio_key
    calls = []

    def ratio_key(field, rows, images=None):  # called once for each state, in order
        calls.append(rows)
        return None if len(calls) - 1 == witness[dropped] else keyed(field, rows)

    with mock.patch.object(NumberField, "ratio_key", ratio_key):
        assert expand(values, depth).recurrence == witness
    assert len(calls) == witness[1] + 1
