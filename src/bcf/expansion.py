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

A guarded-decimal tuple is a box of inputs.  Along a fixed digit prefix
the state is a projective image v_k/v_0 of the inputs, v = S * (1, x_1,
..., x_m) for an integer matrix S, so each digit condition
a <= v_k/v_0 < a + 1 is a pair of linear inequalities: the set of inputs
sharing a prefix is convex, and the box lies in it exactly when its 2^m
corners do.  A guarded step therefore runs the exact rational step on
every corner and certifies a digit only when all corners agree on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice, product
from math import floor
from typing import Sequence

from .arith import FieldElement, GuardedDecimal, RealValue
from .errors import AmbiguousFloor, MixedFields, NegativeInput, UnsupportedOrder

# A guarded step runs 2^m exact corner steps: ~0.07 s per step at order 10
# with 20-digit literals (~0.35 s at order 12), and memory grows as fast.
_MAX_GUARDED_ORDER = 10


@dataclass(frozen=True)
class ExpansionState:
    """The value tuple entering step ``step``; equality of ``values`` across
    steps proves a period.

    For guarded inputs ``values`` stays the input box and ``corners`` holds
    the exact images of its 2^m corners after ``step`` steps (None at step
    0, where they are the box's own corners).
    """

    values: tuple[RealValue, ...]
    step: int
    corners: tuple[tuple[Fraction, ...], ...] | None = None


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
    if isinstance(state.values[0], GuardedDecimal):
        return _corner_step(state)
    digits = tuple(floor(v) for v in state.values)
    _check_nonnegative(digits, state.step)
    nxt = _advance(state.values, digits)
    return digits, None if nxt is None else ExpansionState(nxt, state.step + 1)


def _corner_step(state: ExpansionState) -> tuple[tuple[int, ...], ExpansionState]:
    """Step every exact corner of a guarded box; refuse unless all corners
    floor alike and none terminates."""
    if len(state.values) > _MAX_GUARDED_ORDER:
        raise UnsupportedOrder(
            f"guarded decimals expand by the 2^m corners of their box; order "
            f"{len(state.values)} exceeds {_MAX_GUARDED_ORDER}"
        )
    corners = state.corners or tuple(product(*(v.bounds() for v in state.values)))
    rows = [tuple(floor(v) for v in c) for c in corners]
    digits = rows[0]
    for k, d in enumerate(digits):
        if any(r[k] != d for r in rows):
            # The corners floor apart, so the floor of their hull refuses.
            lo, hi = min(c[k] for c in corners), max(c[k] for c in corners)
            GuardedDecimal((lo + hi) / 2, (hi - lo) / 2).floor()
    _check_nonnegative(digits, state.step)
    nexts = [_advance(c, digits) for c in corners]
    if None in nexts:
        raise AmbiguousFloor(
            f"component {len(digits)} at step {state.step} may have fractional "
            "part exactly zero: the guard band reaches zero; supply more trusted digits"
        )
    return digits, ExpansionState(state.values, state.step + 1, tuple(nexts))


def _check_nonnegative(digits: tuple[int, ...], step: int):
    for k, d in enumerate(digits):
        if d < 0:
            raise NegativeInput(
                f"component {k + 1} at step {step} has negative floor {d}; "
                "only non-negative reals are expandable"
            )


def _advance(values, digits):
    """The exact next value tuple, or None when the last fraction is zero."""
    fracs = tuple(v - d for v, d in zip(values, digits))
    last = fracs[-1]
    if last == 0:
        return None
    inv = 1 / last
    return (inv,) + tuple(f * inv for f in fracs[:-1])


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
