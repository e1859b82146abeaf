import random
from fractions import Fraction

import pytest

from bcf.arith import GuardedDecimal, IntPolynomial, NumberField
from bcf.errors import InexactBackend
from bcf.expansion import expand
from bcf.periodicity import (
    APPARENT,
    NONE_WITHIN_DEPTH,
    PROVEN,
    apparent_digit_period,
    detect_period,
    period_report,
)

SQRT2 = NumberField(IntPolynomial((-2, 0, 1)), 1, 2)
TRIB = NumberField(IntPolynomial((-1, -1, -1, 1)), 1, 2)
QUARTIC = NumberField(IntPolynomial((-2, 0, 0, 0, 1)), 1, 2)


def test_sqrt2_preperiod_one_period_one():
    e = expand([SQRT2.theta()], 10)
    assert e.digits[0] == (1,) + (2,) * 9
    r = detect_period(e)
    assert (r.status, r.preperiod, r.period) == (PROVEN, 1, 1)
    assert r.witness == (1, 2)


def test_tribonacci_pair_pure_period_one():
    th = TRIB.theta()
    e = expand([th, 1 + th.inverse()], 10)
    r = detect_period(e)
    assert (r.status, r.preperiod, r.period) == (PROVEN, 0, 1)


def test_quartic_triple_preperiod_one_period_three():
    th = QUARTIC.theta()
    e = expand([th, th**2, th**3], 20)
    r = detect_period(e)
    assert (r.status, r.preperiod, r.period) == (PROVEN, 1, 3)


def test_none_within_depth():
    e = expand([TRIB.theta()], 6)  # classic CF of the cubic never repeats states
    r = detect_period(e)
    assert r.status == NONE_WITHIN_DEPTH
    assert not r.found


def test_inexact_backend_refused():
    e = expand([GuardedDecimal.from_literal("1.8392867552", guard_digits=1)], 4)
    with pytest.raises(InexactBackend):
        detect_period(e)


def test_period_report_proves_exact_and_scans_inexact():
    exact = expand([SQRT2.theta()], 10)
    assert period_report(exact) == detect_period(exact)
    guarded = expand([GuardedDecimal.from_literal("1.41421356237309504880", guard_digits=2)], 12)
    assert guarded.states is None
    assert period_report(guarded) == apparent_digit_period(guarded.digits)
    assert period_report(guarded).status == APPARENT


def test_proven_period_replays_from_witness_state():
    th = QUARTIC.theta()
    e = expand([th, th**2, th**3], 20)
    r = detect_period(e)
    q = r.period
    replay = expand(e.states[r.preperiod].values, 2 * q + 1)
    for seq in replay.digits:
        for t in range(len(replay) - q):
            assert seq[t] == seq[t + q]


def test_minimality_by_exhaustive_pair_scan():
    th = QUARTIC.theta()
    e = expand([th, th**2, th**3], 20)
    r = detect_period(e)
    hits = [
        (i, j)
        for i in range(len(e.states))
        for j in range(i + 1, len(e.states))
        if e.states[i].values == e.states[j].values
    ]
    best = min(hits, key=lambda ij: (ij[1] - ij[0], ij[0]))
    assert best == (r.preperiod, r.preperiod + r.period)


def test_digit_periodicity_holds_on_report():
    e = expand([SQRT2.theta()], 12)
    r = detect_period(e)
    for seq in e.digits:
        for t in range(r.preperiod, len(e) - r.period):
            assert seq[t] == seq[t + r.period]


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
