"""Exact arithmetic backends: rationals, algebraic number fields, guarded decimals.

Rationals and field elements answer ``math.floor(x)``, ``x - n``, ``x == 0``,
``1 / x`` and ``x * y`` (``y`` of the same type), all the expansion loop asks;
a field decides them by bisecting its own isolating bracket of theta.  A
guarded decimal only knows its bounds: the loop steps integer linear forms
over the box and certifies a digit when every point of the box floors to it.
"""

from fractions import Fraction
from typing import Union

from .guarded import GuardedDecimal
from .numberfield import FieldElement, NumberField
from .polynomials import IntPolynomial, eval_interval

RealValue = Union[Fraction, FieldElement, GuardedDecimal]

__all__ = [
    "GuardedDecimal",
    "FieldElement",
    "NumberField",
    "IntPolynomial",
    "eval_interval",
    "RealValue",
]
