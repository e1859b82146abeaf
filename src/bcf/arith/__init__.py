"""Exact arithmetic backends: rationals, algebraic number fields, guarded decimals.

Rationals and field elements answer ``math.floor(x)``, ``x - n``, ``x == 0``,
``1 / x`` and ``x * y`` (``y`` of the same type) exactly.  A field encloses
theta one way: a dyadic cell of its own isolating bracket, on which it
decides floors and bounds of its elements.  The expansion loop asks none of
these: it steps integer rows, and asks a field only for certified floors of
ratios of integer residues on a dyadic bracket of theta
(``NumberField.ratio_floors``) and for state keys, the rows' image
modulo M at an integer point n of the modulus, which also certifies v_0 a
unit (``NumberField.ratio_key``).  A guarded decimal only knows its bounds: the
loop steps integer linear forms over the box and certifies a digit when
every point of the box floors to it.
"""

from fractions import Fraction
from typing import Union

from .guarded import GuardedDecimal
from .numberfield import FieldElement, NumberField
from .polynomials import IntPolynomial

RealValue = Union[Fraction, FieldElement, GuardedDecimal]

__all__ = [
    "GuardedDecimal",
    "FieldElement",
    "NumberField",
    "IntPolynomial",
    "RealValue",
]
