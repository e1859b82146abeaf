import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcf.arith import IntPolynomial, NumberField
from bcf.errors import InsufficientDigits, NoConvergence, UnsupportedOrder
from bcf.evaluation import (
    DigitSpec,
    convergent,
    convergent_table,
    convergents,
    reconstruct,
    render_tree,
    unroll,
)
from bcf.expansion import expand
from bcf.periodicity import period_report
from bcf.sequences import kbonacci

UNIT = DigitSpec.constant((1, 1))
MOORE = DigitSpec.constant((1, 0))
ALLONES3 = DigitSpec.constant((1, 1, 1))
QUARTIC_SPEC = DigitSpec(
    order=3,
    head=((1,), (1,), (1,)),
    cycle=((1, 1, 2), (0, 0, 1), (0, 0, 1)),
)


def tol(exp10: int) -> Fraction:
    return Fraction(1, 10**exp10)


def digit_rows(spec: DigitSpec, depth: int) -> list[list[int]]:
    """Head then repeated cycle of each sequence, cut after index ``depth``."""
    rows = []
    for k in range(spec.order):
        seq = list(spec.head[k])
        while spec.cycle is not None and len(seq) <= depth:
            seq.extend(spec.cycle[k])
        rows.append(seq[: depth + 1])
    return rows


def backward_convergent(spec: DigitSpec, depth: int) -> tuple[Fraction, ...]:
    """Test-only oracle: the depth-``depth`` convergent by the backward
    recurrence from the terminal digits,

        x_m(i) = a_m(i) + 1 / x_1(i+1)
        x_k(i) = a_k(i) + x_(k+1)(i+1) / x_1(i+1)      (k < m).
    """
    rows = digit_rows(spec, depth)
    m = spec.order
    x = [Fraction(seq[depth]) for seq in rows]
    for i in range(depth - 1, -1, -1):
        x = [rows[k][i] + (x[k + 1] if k + 1 < m else 1) / x[0] for k in range(m)]
    return tuple(x)


@st.composite
def digit_specs(draw):
    """Valid specs of order 1-4, with or without a head and a cycle."""
    m = draw(st.integers(1, 4))
    cycle_len = draw(st.integers(0, 3))
    head_len = draw(st.integers(0 if cycle_len else 1, 4))

    def seqs(length, first_free):
        # first-sequence digits past the first ``first_free`` must be >= 1
        first = [draw(st.integers(int(i >= first_free), 6)) for i in range(length)]
        rest = [[draw(st.integers(0, 6)) for _ in range(length)] for _ in range(m - 1)]
        return tuple(map(tuple, [first, *rest]))

    head = seqs(head_len, first_free=1)
    cycle = seqs(cycle_len, first_free=0) if cycle_len else None
    return DigitSpec(order=m, head=head, cycle=cycle)


def spec_depth(spec: DigitSpec, depth: int) -> int:
    return depth if spec.max_depth is None else min(depth, spec.max_depth)


# -- unroll -------------------------------------------------------------------


def test_unroll_quartic_spec():
    seqs = unroll(QUARTIC_SPEC, 6)
    assert seqs[0] == [1, 1, 1, 2, 1, 1, 2]
    assert seqs[1] == [1, 0, 0, 1, 0, 0, 1]
    assert seqs[2] == [1, 0, 0, 1, 0, 0, 1]


def test_unroll_constant_spec():
    assert unroll(UNIT, 4) == [[1] * 5, [1] * 5]


def test_unroll_cycle_only_m1():
    spec = DigitSpec(order=1, head=((),), cycle=((2,),))
    assert unroll(spec, 3) == [[2, 2, 2, 2]]


def test_unroll_insufficient_digits():
    spec = DigitSpec(order=1, head=((1, 2),))
    with pytest.raises(InsufficientDigits):
        unroll(spec, 5)


@settings(max_examples=200, deadline=None)
@given(digit_specs(), st.integers(0, 12))
def test_unroll_and_columns_lay_out_head_then_cycle(spec, depth):
    depth = spec_depth(spec, depth)
    rows = digit_rows(spec, depth)
    assert unroll(spec, depth) == rows
    columns = itertools.islice(spec.columns(), depth + 1)
    assert [list(seq) for seq in zip(*columns)] == rows


def test_spec_validation():
    with pytest.raises(ValueError):
        DigitSpec(order=2, head=((1,), (1, 2)))
    with pytest.raises(ValueError):
        DigitSpec(order=1, head=((1, 0, 1),))  # zero in first sequence tail
    with pytest.raises(ValueError):
        DigitSpec(order=1, head=((),), cycle=((0,),))
    with pytest.raises(ValueError):
        DigitSpec(order=1, head=((-1,),))


# -- convergents ---------------------------------------------------------------


def test_unit_spec_fifth_convergent():
    assert convergent(UNIT, 5) == (Fraction(24, 13), Fraction(20, 13))


def test_unit_spec_depth_three():
    assert convergent(UNIT, 3)[0] == Fraction(7, 4)


def test_m1_all_ones_depth_four():
    spec = DigitSpec(order=1, head=((1, 1, 1, 1, 1),))
    assert convergent(spec, 4) == (Fraction(8, 5),)


def test_convergent_table_unit_first_components():
    table = convergent_table(UNIT, 5)
    assert [row[0] for row in table] == [
        Fraction(1),
        Fraction(2),
        Fraction(2),
        Fraction(7, 4),
        Fraction(13, 7),
        Fraction(24, 13),
    ]


def test_moore_table_converges_to_constant():
    table = convergent_table(MOORE, 40)
    assert abs(table[-1][0] - Fraction("1.4655712318")) < tol(8)


def test_allones3_table_converges_to_tetranacci():
    table = convergent_table(ALLONES3, 40)
    assert abs(table[-1][0] - Fraction("1.9275619754")) < tol(8)


@settings(max_examples=200, deadline=None)
@given(digit_specs(), st.integers(0, 25))
def test_convergent_table_matches_backward_oracle(spec, upto):
    upto = spec_depth(spec, upto)
    assert convergent_table(spec, upto) == [
        backward_convergent(spec, n) for n in range(upto + 1)
    ]
    assert convergent(spec, upto) == backward_convergent(spec, upto)


def test_tribonacci_ratio_identity():
    t = kbonacci(3, 40)
    for n in range(31):
        assert convergent(UNIT, n)[0] == Fraction(t[n + 3], t[n + 2])


def test_m1_convergents_match_classic_recurrence():
    rng = random.Random(99)
    for _ in range(100):
        digits = [rng.randint(1, 9)] + [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
        spec = DigitSpec(order=1, head=(tuple(digits),))
        # classic two-term recurrence p_n = a_n p_(n-1) + p_(n-2)
        p_prev, p_prev2 = 1, 0
        q_prev, q_prev2 = 0, 1
        for a in digits:
            p_prev, p_prev2 = a * p_prev + p_prev2, p_prev
            q_prev, q_prev2 = a * q_prev + q_prev2, q_prev
        assert convergent(spec, len(digits) - 1) == (Fraction(p_prev, q_prev),)


def test_beta_identity_every_depth():
    rng = random.Random(4)
    for _ in range(20):
        a, b = rng.randint(1, 4), rng.randint(0, 4)
        spec = DigitSpec.constant((a, b))
        n = rng.randint(1, 25)
        # the step-1 tail of a constant spec is the same spec, one level shallower
        assert convergent(spec, n)[1] == b + 1 / convergent(spec, n - 1)[0]


def test_fixed_point_residual_shrinks():
    for a in (1, 2, 3):
        for b in (0, 1, 2, 3):
            spec = DigitSpec.constant((a, b))
            poly = IntPolynomial((-1, -b, -a, 1))
            r10 = abs(poly(convergent(spec, 10)[0]))
            r30 = abs(poly(convergent(spec, 30)[0]))
            assert r30 < r10


def test_round_trip_cauchy_bound():
    field = NumberField(IntPolynomial((-1, -1, -1, 1)), 1, 2)
    th = field.theta()
    values = (th, 1 + th.inverse())
    exp = expand(values, 45)
    spec = DigitSpec.from_expansion(exp)
    prev_err_bound = None
    for n in (5, 10, 20, 40):
        cn = convergent(spec, n)
        cn1 = convergent(spec, n - 1)
        diff = max(abs(a - b) for a, b in zip(cn, cn1))
        for x, c in zip(values, cn):
            assert math.floor(x - (c + diff)) < 0
            assert math.floor((c - diff) - x) < 0
        if prev_err_bound is not None:
            assert diff < prev_err_bound
        prev_err_bound = diff


# -- reconstruct ----------------------------------------------------------------


def test_reconstruct_unit_hits_tribonacci_constant():
    values, bound = reconstruct(UNIT, tol(6))
    assert abs(values[0] - Fraction("1.83928675521416")) < tol(5)
    assert bound < tol(6)


def test_reconstruct_finite_spec_is_exact():
    exp = expand([Fraction(7, 4)], 10)
    spec = DigitSpec.from_expansion(exp)
    values, bound = reconstruct(spec, tol(6))
    assert values == (Fraction(7, 4),)
    assert bound == 0


def test_reconstruct_quartic_triple():
    # independent references by bisection: 2^(1/4), 2^(1/2), 2^(3/4)
    refs = []
    for poly in ((-2, 0, 0, 0, 1), (-2, 0, 1), (-8, 0, 0, 0, 1)):
        lo, hi = NumberField(poly, 1, 2).theta().interval(tol(12))
        refs.append((lo + hi) / 2)
    values, _ = reconstruct(QUARTIC_SPEC, tol(8))
    for got, ref in zip(values, refs):
        assert abs(got - ref) < tol(6)


def test_reconstruct_no_convergence():
    with pytest.raises(NoConvergence):
        reconstruct(UNIT, tol(8), max_depth=5)


def test_reconstruct_refuses_spec_without_digits():
    with pytest.raises(InsufficientDigits, match="spec holds 0 digits per sequence"):
        reconstruct(DigitSpec(order=2, head=((), ())), tol(6))


def fraction_reconstruct(spec: DigitSpec, tol, max_depth: int = 1000):
    """Test-only oracle: the stopping loop on Fraction convergent tuples."""
    stream = convergents(spec)
    prev = next(stream)
    recent = []
    for cur in itertools.islice(stream, max_depth):
        diff = max(abs(a - b) for a, b in zip(cur, prev))
        prev = cur
        if diff < tol:
            recent.append(diff)
            if len(recent) == 3:
                return cur, max(recent)
        else:
            recent.clear()
    raise NoConvergence(f"convergents still moved >= {tol} after depth {max_depth}")


def outcome(f, *args):
    try:
        return f(*args)
    except NoConvergence as exc:
        return str(exc)


def test_reconstruct_step_of_exactly_tol_is_not_small():
    # The convergents 0 and 1/10000 differ by exactly 1e-4.
    spec = DigitSpec(order=1, head=((0, 10000),), cycle=((1,),))
    values, bound = reconstruct(spec, tol(4))
    assert (values, bound) == fraction_reconstruct(spec, tol(4))
    assert bound < tol(4)


@settings(max_examples=150, deadline=None)
@given(
    digit_specs().filter(lambda s: s.cycle is not None and s.order <= 3),
    st.integers(4, 20).map(tol),
    st.one_of(st.integers(1, 12), st.just(1000)),
)
def test_reconstruct_matches_fraction_loop(spec, t, max_depth):
    got = outcome(reconstruct, spec, t, max_depth)
    assert got == outcome(fraction_reconstruct, spec, t, max_depth)


# -- trees -----------------------------------------------------------------------


def test_tree_requires_order_two():
    with pytest.raises(UnsupportedOrder):
        render_tree(ALLONES3, 2)


def test_tree_depth_cap():
    with pytest.raises(ValueError):
        render_tree(UNIT, 7)


def test_tree_unit_alpha_depth2():
    assert render_tree(UNIT, 2, "alpha") == (
        "alpha tree, depth 2\n"
        "node p with branches (up: q, dn: r) stands for p + q/r\n"
        "1\n"
        "+- up: 1\n"
        "|      +- up: 1\n"
        "|      `- dn: 1\n"
        "`- dn: 1\n"
        "       +- up: 1\n"
        "       `- dn: 1\n"
    )


def test_tree_moore_alpha_depth1():
    assert render_tree(MOORE, 1, "alpha") == (
        "alpha tree, depth 1\n"
        "node p with branches (up: q, dn: r) stands for p + q/r\n"
        "1\n"
        "+- up: 0\n"
        "`- dn: 1\n"
    )


def test_tree_unit_beta_depth1():
    assert render_tree(UNIT, 1, "beta") == (
        "beta tree, depth 1\n"
        "node p with branches (up: q, dn: r) stands for p + q/r\n"
        "1\n"
        "+- up: 1\n"
        "`- dn: 1\n"
    )


# -- expansion round trip ----------------------------------------------------------


def test_from_expansion_folds_proven_period():
    field = NumberField(IntPolynomial((-2, 0, 0, 0, 1)), 1, 2)
    th = field.theta()
    exp = expand([th, th**2, th**3], 14)
    report = period_report(exp)
    spec = DigitSpec.from_expansion(exp, report)
    assert spec.head == ((1,), (1,), (1,))
    assert spec.cycle == ((1, 1, 2), (0, 0, 1), (0, 0, 1))
    assert unroll(spec, 13) == [list(seq) for seq in exp.digits]
