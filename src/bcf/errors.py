"""Exception taxonomy.

The four base classes carry the CLI exit codes as ``exit_code``: parse
errors exit 2, precision failures exit 3, algebra failures exit 4,
unsupported requests exit 5, and any other ``BcfError`` exits 1.
"""


class BcfError(Exception):
    exit_code = 1


class ParseError(BcfError):
    """Malformed value spec, digit file, or out-of-range request."""

    exit_code = 2


class InsufficientDigits(ParseError):
    """A digit spec without a cycle was asked for more digits than it holds."""


class PrecisionError(BcfError):
    """The available precision cannot support the requested decision."""

    exit_code = 3


class AmbiguousFloor(PrecisionError):
    """The guard band of a decimal input could change a digit: a value sits
    within its band of an integer, or a corner of the band terminates.

    ``extra_digits_hint`` estimates how many more trusted digits would
    resolve the floor; ``None`` when the value may be exactly integral.
    ``step`` and ``component`` (1-based) say where an expansion refused;
    ``None`` when the refusal came from outside one.
    """

    def __init__(
        self,
        message: str,
        extra_digits_hint: "int | None" = None,
        step: "int | None" = None,
        component: "int | None" = None,
    ):
        super().__init__(message)
        self.extra_digits_hint = extra_digits_hint
        self.step = step
        self.component = component


class PrecisionTooLow(PrecisionError):
    """An input approximation is too coarse for the requested tolerance."""


class NoConvergence(PrecisionError):
    """Convergents kept oscillating above tolerance up to the depth limit."""


class AlgebraError(BcfError):
    exit_code = 4


class MixedFields(AlgebraError):
    """Operands belong to different number fields (or mixed backends)."""


class ZeroInverse(AlgebraError):
    """Multiplicative inverse of zero requested."""


class ReducibleModulus(AlgebraError):
    """Inversion found a nontrivial factor of the field modulus.

    ``factor`` is the discovered factor (an integer polynomial).
    """

    def __init__(self, message: str, factor=None):
        super().__init__(message)
        self.factor = factor


class NonMonicModulus(AlgebraError):
    """Field moduli must be monic integer polynomials of degree >= 2."""


class NonIsolatingInterval(AlgebraError):
    """An interval fails to isolate a single real root (sign anomaly)."""


class UnsupportedError(BcfError):
    exit_code = 5


class UnsupportedOrder(UnsupportedError):
    """Operation defined only for a specific expansion order."""


class NegativeInput(UnsupportedError):
    """Expansion inputs must be non-negative reals."""
