"""Order-m continued fraction expansion.

An m-tuple of positive reals (x_1, ..., x_m) yields m coupled digit
sequences by iterating

    a_k = floor(x_k)                      (k = 1..m)
    f_k = x_k - a_k
    next state = (1/f_m, f_1/f_m, ..., f_(m-1)/f_m)

with termination when f_m is exactly zero.  m = 1 is the classical
continued fraction.

Exact backends snapshot every state.  The dynamics are deterministic, so
once a number-field state equals an earlier one the digits between them
repeat forever: the loop stops there and copies that cycle out to the
requested depth.  Rational tuples terminate (their common denominator
falls at every step), so only field states are looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from math import floor
from typing import Sequence

from .arith import FieldElement, GuardedDecimal, RealValue
from .errors import MixedFields, NegativeInput


@dataclass(frozen=True)
class ExpansionState:
    """The value tuple entering step ``step``; equality of ``values`` across
    steps proves a period."""

    values: tuple[RealValue, ...]
    step: int


@dataclass(frozen=True)
class Expansion:
    """m digit sequences plus optional exact state snapshots.

    ``digits[k][i]`` is the step-i digit of sequence k+1.  ``states[i]``
    (exact backends only) is the state that produced step i's digits.
    ``terminated_at`` is the step whose m-th fractional part was exactly
    zero, or None.  ``recurrence`` is the first witness (i, j) of equal
    states i < j; ``states`` then ends at j - 1 and the digits from j on
    are copied from the cycle i..j-1.
    """

    order: int
    digits: tuple[tuple[int, ...], ...]
    terminated_at: int | None
    states: tuple[ExpansionState, ...] | None
    recurrence: tuple[int, int] | None

    def __len__(self) -> int:
        return len(self.digits[0])

    @property
    def is_terminated(self) -> bool:
        return self.terminated_at is not None


def expand_step(state: ExpansionState) -> tuple[tuple[int, ...], ExpansionState | None]:
    """One expansion step: the digit tuple and the next state (None on
    exact termination)."""
    digits = tuple(floor(v) for v in state.values)
    for k, d in enumerate(digits):
        if d < 0:
            raise NegativeInput(
                f"component {k + 1} at step {state.step} has negative floor {d}; "
                "only non-negative reals are expandable"
            )
    fracs = tuple(v - d for v, d in zip(state.values, digits))
    last = fracs[-1]
    # A guarded value is never == 0; when its band reaches zero, 1 / last
    # refuses with AmbiguousFloor instead.
    if last == 0:
        return digits, None
    inv = 1 / last
    next_values = (inv,) + tuple(f * inv for f in fracs[:-1])
    return digits, ExpansionState(next_values, state.step + 1)


def expand(values: Sequence[RealValue | int], max_depth: int) -> Expansion:
    """Iterate expand_step up to ``max_depth`` digit tuples, termination or
    the first exact state recurrence, whose cycle fills the rest."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    vals = tuple(Fraction(v) if isinstance(v, int) else v for v in values)
    if not vals:
        raise ValueError("at least one value required")
    keys = {_backend_key(v) for v in vals}
    if len(keys) > 1:
        raise MixedFields(
            "all expansion inputs must share one backend (and one field); got "
            + ", ".join(sorted(str(k) for k in keys))
        )
    exact = not isinstance(vals[0], GuardedDecimal)
    seen: dict | None = {} if isinstance(vals[0], FieldElement) else None

    rows: list[tuple[int, ...]] = []
    states: list[ExpansionState] = []
    terminated_at: int | None = None
    recurrence: tuple[int, int] | None = None

    state: ExpansionState | None = ExpansionState(vals, 0)
    for i in range(max_depth):
        assert state is not None
        if seen is not None and seen.setdefault(state.values, i) != i:
            recurrence = (seen[state.values], i)
            break
        if exact:
            states.append(state)
        digits, state = expand_step(state)
        rows.append(digits)
        if i >= 1 and digits[0] < 1:
            raise AssertionError(
                f"first-sequence digit {digits[0]} < 1 at step {i}; "
                "expansion invariant broken"
            )
        if state is None:
            terminated_at = i
            break

    if recurrence is not None:
        rows += islice(cycle(rows[recurrence[0] :]), max_depth - len(rows))
    return Expansion(
        order=len(vals),
        digits=tuple(zip(*rows)),
        terminated_at=terminated_at,
        states=tuple(states) if exact else None,
        recurrence=recurrence,
    )


def _backend_key(x: RealValue):
    """Hashable token identifying the backend (and field) of a value."""
    if isinstance(x, Fraction):
        return "rational"
    if isinstance(x, FieldElement):
        return ("field", x.field)
    if isinstance(x, GuardedDecimal):
        return "guarded"
    raise TypeError(f"not a real value: {x!r}")
