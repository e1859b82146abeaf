"""Exact bifurcating (order-m) continued fractions.

Expands tuples of positive reals into coupled digit sequences, proves
eventual periodicity by exact state recurrence, evaluates rational
convergents, renders order-2 trees, and derives the period-1 closed-form
polynomials.
"""

from .arith import (
    FieldElement,
    GuardedDecimal,
    IntPolynomial,
    NumberField,
    RealValue,
)
from .closedform import (
    CubicCandidate,
    allones_poly,
    alpha_cubic,
    beta_cubic,
    cubic_hunt,
)
from .evaluation import (
    DigitSpec,
    convergent,
    convergent_table,
    convergents,
    reconstruct,
    render_tree,
    unroll,
)
from .expansion import Expansion, ExpansionState, expand, expand_step
from .periodicity import (
    APPARENT,
    NONE_WITHIN_DEPTH,
    PROVEN,
    PeriodReport,
    apparent_digit_period,
    period_report,
)
from .sequences import kbonacci

__version__ = "0.1.0"

__all__ = [
    "FieldElement",
    "GuardedDecimal",
    "IntPolynomial",
    "NumberField",
    "RealValue",
    "CubicCandidate",
    "allones_poly",
    "alpha_cubic",
    "beta_cubic",
    "cubic_hunt",
    "DigitSpec",
    "convergent",
    "convergent_table",
    "convergents",
    "reconstruct",
    "render_tree",
    "unroll",
    "Expansion",
    "ExpansionState",
    "expand",
    "expand_step",
    "APPARENT",
    "NONE_WITHIN_DEPTH",
    "PROVEN",
    "PeriodReport",
    "apparent_digit_period",
    "period_report",
    "kbonacci",
    "__version__",
]
