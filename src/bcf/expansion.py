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
corners do: when the least of v_k - a*v_0 is >= 0 and of (a+1)*v_0 - v_k
is > 0, each read off its coefficient signs.  A guarded step steps v alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from math import floor, lcm
from typing import Sequence

from .arith import FieldElement, GuardedDecimal, RealValue
from .errors import AmbiguousFloor, MixedFields, NegativeInput


@dataclass(frozen=True)
class ExpansionState:
    """The value tuple entering step ``step``; equality of ``values`` across
    steps proves a period.

    For guarded inputs ``values`` stays the input box and ``forms`` holds
    its integer forms D*v after ``step`` steps (None at step 0: ``_box_forms``).
    """

    values: tuple[RealValue, ...]
    step: int
    forms: tuple[tuple[int, ...], ...] | None = None


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
        return _forms_step(state)
    digits = tuple(floor(v) for v in state.values)
    _check_nonnegative(digits, state.step)
    nxt = _advance(state.values, digits)
    return digits, None if nxt is None else ExpansionState(nxt, state.step + 1)


def _forms_step(state: ExpansionState) -> tuple[tuple[int, ...], ExpansionState]:
    """Step the integer forms of a guarded box; refuse unless the whole box
    floors alike and no point of it terminates."""
    v0, *vs = state.forms or _box_forms(state.values)
    digits = tuple(v[0] // v0[0] for v in vs)  # the floors at the all-low corner
    rests = [tuple(c - a * c0 for c, c0 in zip(v, v0)) for v, a in zip(vs, digits)]
    for v, rest in zip(vs, rests):
        if _least(rest) < 0 or _least([c0 - c for c, c0 in zip(rest, v0)]) <= 0:
            # The box floors apart, so the floor of its hull refuses.
            lo, hi = _ratio_end(v, v0, 1), _ratio_end(v, v0, -1)
            GuardedDecimal((lo + hi) / 2, (hi - lo) / 2).floor()
    _check_nonnegative(digits, state.step)
    if _least(rests[-1]) == 0:
        raise AmbiguousFloor(
            f"component {len(digits)} at step {state.step} may have fractional "
            "part exactly zero: the guard band reaches zero; supply more trusted digits"
        )
    return digits, ExpansionState(state.values, state.step + 1, (rests[-1], v0, *rests[:-1]))


def _box_forms(box) -> tuple[tuple[int, ...], ...]:
    """D*(1, x_1, ..., x_m) in the coordinates (1, t_1, ..., t_m) of the unit
    cube, x_j = lo_j + t_j*(hi_j - lo_j), D the lcm of the bound denominators."""
    bounds = [g.bounds() for g in box]
    d = lcm(*(b.denominator for pair in bounds for b in pair))
    return ((d,) + (0,) * len(box),) + tuple(
        (int(lo * d),) + tuple(int((hi - lo) * d) * (j == k) for j in range(len(box)))
        for k, (lo, hi) in enumerate(bounds)
    )


def _least(row) -> int:
    """The least value of a form over the unit cube."""
    return row[0] + sum(c for c in row[1:] if c < 0)


def _ratio_end(num, den, sign: int) -> Fraction:
    """The exact minimum (sign 1) or maximum (sign -1) of num/den over the unit
    cube, den > 0, by Dinkelbach's iteration: from a corner of ratio p/q, go to
    the corner minimising sign*(q*num - p*den) until that minimum is 0."""
    p, q = num[0], den[0]
    while True:
        pick = [sign * (q * n - p * e) < 0 for n, e in zip(num[1:], den[1:])]
        p2, q2 = (row[0] + sum(c for c, t in zip(row[1:], pick) if t) for row in (num, den))
        if p2 * q == p * q2:
            return Fraction(p, q)
        p, q = p2, q2


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
