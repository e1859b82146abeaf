"""Library refusals and edge paths that the other tests never reach: each
bad argument raises its typed error with its message, and each degenerate
input takes its own branch."""

import re
from fractions import Fraction

import pytest

from bcf.arith import GuardedDecimal, IntPolynomial, NumberField
from bcf.arith.polynomials import qp_divmod, qp_primitive_int
from bcf.closedform import allones_poly, cubic_hunt
from bcf.errors import MixedFields, NonIsolatingInterval, ParseError, ZeroInverse
from bcf.evaluation import DigitSpec, reconstruct, render_tree, unroll
from bcf.expansion import expand
from bcf.formats import (
    decimal_string, format_value_spec, loads_digit_file, parse_inline_digits, parse_value_spec,
)
from bcf.periodicity import NONE_WITHIN_DEPTH, PeriodReport, apparent_digit_period

SQRT2 = NumberField(IntPolynomial((-2, 0, 1)), 1, 2)
CBRT2 = NumberField(IntPolynomial((-2, 0, 0, 1)), 1, 2)
UNIT = DigitSpec.constant((1, 1))


def digit_file(*lines):
    return "\n".join(("bcf-digits v1", *lines)) + "\n"


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: DigitSpec(0, ()), ValueError, "order must be >= 1", id="spec-order"),
        pytest.param(lambda: DigitSpec(2, ((1,),)), ValueError,
                     "expected 2 head sequences, got 1", id="spec-heads"),
        pytest.param(lambda: DigitSpec(1, ((1,),), ((1,), (1,))), ValueError,
                     "expected 1 cycle sequences, got 2", id="spec-cycles"),
        pytest.param(lambda: DigitSpec(1, ((1,),), ((),)), ValueError,
                     "cycle sequences must share one positive length", id="spec-empty-cycle"),
        pytest.param(lambda: DigitSpec(1, ((Fraction(3, 2),),)), ValueError,
                     "head digits must be integers, got Fraction(3, 2)", id="spec-digit-type"),
        pytest.param(lambda: unroll(UNIT, -1), ValueError, "depth must be >= 0", id="depth"),
        pytest.param(lambda: reconstruct(UNIT, 0), ValueError, "tol must be positive",
                     id="reconstruct-tol"),
        pytest.param(lambda: render_tree(UNIT, 1, "gamma"), ValueError,
                     "which must be 'alpha' or 'beta'", id="tree-which"),
        pytest.param(lambda: decimal_string(Fraction(1, 3), -1), ValueError,
                     "places must be >= 0", id="decimal-places"),
        pytest.param(lambda: format_value_spec(GuardedDecimal(1, Fraction(1, 10))), ValueError,
                     "derived guarded decimals have no literal form", id="format-derived"),
        pytest.param(lambda: format_value_spec(1.5), TypeError, "not a real value: 1.5",
                     id="format-float"),
        pytest.param(lambda: loads_digit_file(digit_file("m 1")), ParseError,
                     "malformed digit-file line: 'm 1'", id="file-line"),
        pytest.param(lambda: loads_digit_file(digit_file("m: 1", "head[1]: 1", "meta: x")),
                     ParseError, "meta line needs key=value: 'meta: x'", id="file-meta"),
        pytest.param(lambda: loads_digit_file(digit_file("m: 1", "head[1]: 1", "cycle[2]: 1")),
                     ParseError, "expected cycle[1..1] lines, got [2]", id="file-cycles"),
        pytest.param(lambda: loads_digit_file(digit_file(f"m: {10**15}", "head[1]: 1 2")),
                     ParseError, f"expected head[1..{10**15}] lines, got [1]", id="file-m-1e15"),
        pytest.param(lambda: loads_digit_file(digit_file(f"m: {10**100}", "head[1]: 1 2")),
                     ParseError, f"expected head[1..{10**100}] lines, got [1]", id="file-m-1e100"),
        pytest.param(lambda: parse_inline_digits("1/2 3"), ParseError,
                     "invalid digit data: head sequences must share one length", id="inline"),
        pytest.param(lambda: NumberField(SQRT2.modulus, 2, 1), NonIsolatingInterval,
                     "empty interval [2, 1]", id="field-interval"),
        pytest.param(lambda: SQRT2.element([1, 2, 3]), ValueError,
                     "residue length 3 exceeds field degree 2", id="field-residue"),
        pytest.param(lambda: SQRT2.zero() ** -1, ZeroInverse, "inverse of zero field element",
                     id="field-negative-power-of-zero"),
        pytest.param(lambda: SQRT2.theta().interval(0), ValueError, "width must be positive",
                     id="field-width"),
        pytest.param(lambda: allones_poly(0), ValueError, "m must be >= 1, got 0",
                     id="allones-order"),
        pytest.param(lambda: cubic_hunt(1, 3, 0), ValueError, "tol must be positive",
                     id="hunt-tol"),
        pytest.param(lambda: cubic_hunt(1, 3, 1, value_error=-1), ValueError,
                     "value_error must be >= 0", id="hunt-error"),
        pytest.param(lambda: IntPolynomial((Fraction(1, 2),)), TypeError,
                     "integer coefficients required, got Fraction(1, 2)", id="poly-coeffs"),
        pytest.param(lambda: qp_divmod((1,), (0,)), ZeroDivisionError,
                     "polynomial division by zero", id="poly-divide"),
        pytest.param(lambda: GuardedDecimal(1, 0), ValueError, "guard radius must be positive",
                     id="guard-radius"),
        # re's $ also matches before a trailing newline; the literal must be the whole text.
        pytest.param(lambda: GuardedDecimal.from_literal("1.5\n"), ValueError,
                     "not a decimal literal: '1.5\\n'", id="dec-literal-newline"),
        # Fraction(str) reads each of these on some Python version; parse_rational on none.
        pytest.param(lambda: parse_value_spec("rat:1_000/3"), ParseError,
                     "not a rational: '1_000/3'", id="rational-underscore"),
        pytest.param(lambda: parse_value_spec("rat:3 / 2"), ParseError,
                     "not a rational: '3 / 2'", id="rational-inner-spaces"),
        pytest.param(lambda: parse_value_spec("rat:\uff11/3"), ParseError,
                     "not a rational: '\uff11/3'", id="rational-fullwidth-digit"),
        pytest.param(lambda: parse_value_spec("alg:poly=-2,0,1;elem=1_0,1;lo=1;hi=2"), ParseError,
                     "not a rational: '1_0'", id="alg-elem-underscore"),
        pytest.param(lambda: expand([SQRT2.theta(), Fraction(1, 2)], 3), MixedFields,
                     "all expansion inputs must share one backend (and one field); got "
                     "NumberField(x^2 - 2, root in (1, 2)), rational", id="expand-field-rational"),
        pytest.param(lambda: expand([CBRT2.theta(), SQRT2.theta()], 3), MixedFields,
                     "all expansion inputs must share one backend (and one field); got "
                     "NumberField(x^2 - 2, root in (1, 2)), NumberField(x^3 - 2, root in (1, 2))",
                     id="expand-two-fields"),
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: SQRT2.theta() ** -2, Fraction(1, 2), id="field-negative-power"),
        pytest.param(lambda: qp_primitive_int(()), IntPolynomial(()), id="poly-primitive-zero"),
        pytest.param(lambda: apparent_digit_period(()),
                     PeriodReport(NONE_WITHIN_DEPTH, 0, 0, None), id="period-no-digits"),
    ],
)
def test_degenerate_inputs(call, expected):
    assert call() == expected
