"""Exact arithmetic backends: rationals, algebraic number fields, guarded decimals.

The expansion loop steps integer rows, not values.  A rational row floors by
integer division.  A field answers two questions about integer residues:
certified floors of their ratios, with the enclosures that decided them
(``NumberField.ratio_floors``), and state keys, the rows' image modulo M at
an integer point n of the modulus, which also certify v_0 a unit
(``NumberField.ratio_key``).  Both enclosures and images follow the integer
row step, so a field run steps them with its rows and hands the stepped
enclosures to its next floor call, which encloses afresh on a dyadic
bracket of theta only when they stop deciding.  A guarded decimal only
knows its bounds: the loop steps integer linear forms over the box and
certifies a digit when every point of the box floors to it.  Rationals and
field elements also answer ``math.floor(x)``, ``x - n``, ``x == 0``,
``1 / x`` and ``x * y`` exactly, for code that works with values.
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
