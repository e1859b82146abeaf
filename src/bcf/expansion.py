"""Order-m continued fraction expansion.

An m-tuple of positive reals (x_1, ..., x_m) yields m coupled digit
sequences by iterating

    a_k = floor(x_k)                      (k = 1..m)
    f_k = x_k - a_k
    next state = (1/f_m, f_1/f_m, ..., f_(m-1)/f_m)

with termination when f_m is exactly zero.  m = 1 is the classical
continued fraction.

Every backend steps m+1 integer rows instead of values.  The state is the
point (v_0 : v_1 : ... : v_m), v = D * (1, x_1, ..., x_m), and a step is the
homogeneous Jacobi-Perron step: a_k = floor(v_k / v_0), then
(v_0, ..., v_m) <- (v_m - a_m v_0, v_0, v_1 - a_1 v_0, ..., v_(m-1) - a_(m-1) v_0).
``_start``, the only code that reads value types, turns a tuple into rows
and hands ``expand`` and ``expand_step`` its backend's run:
``run(rows, i, limit)`` takes up to ``limit`` steps from step i and returns
their digit tuples, the rows after them and the recurrence it proved, or
None.  A run stops early at termination or at a recurrence; a step it
cannot certify raises that step's typed refusal.  The backends differ only
in what a row is, how its floor is certified, and how a run loops:

- a rational row is one integer, D the common denominator; its floor is
  integer division.  Order 1 is Euclid's algorithm, a bare ``divmod`` loop
  to termination;
- a number-field row is a vector of integer power-basis coordinates, and
  a step's floors are one ``NumberField.ratio_floors`` call.  The run steps
  the enclosures at theta that the call returns with the rows, as v_k - a*v_0
  lies in [lo_k - a*hi_0, hi_k - a*lo_0] for a >= 0, and passes them on: the
  next call floors on them while both ends of every ratio agree, and else
  encloses the rows afresh at a precision the run carries;
- a guarded-decimal tuple is a box of inputs, and a row is an integer linear
  form over the box's unit cube.  Each digit condition a <= v_k/v_0 < a + 1
  is a pair of linear inequalities, so the inputs sharing a prefix are
  convex and the box lies among them exactly when its 2^m corners do: when
  the least of v_k - a*v_0 is >= 0 and of (a+1)*v_0 - v_k is > 0, each read
  off its coefficient signs.  An order-1 box has two corners, t = 0 and
  t = 1, and its run is two Euclids in lockstep on them, while both give
  the same non-negative quotient and neither remainder is 0.

The step is unimodular, so rows of content 1 keep content 1: scaling the
inputs once by their least common denominator is the only division.

The dynamics are deterministic, so once a number-field state equals an
earlier one the digits between them repeat forever.  The field run keys
every state it passes and stops at the first repeat; ``expand`` copies that
cycle out to the requested depth.  A state is looked up by its image at the
field's integer key point, a tuple of integers modulo M
(``NumberField.ratio_key``) that the run steps mod M with the rows, and a
key hit is confirmed exactly; the rare state whose v_0 has no image to
divide by is keyed None and compared with every other.
Rational tuples terminate (their common denominator falls at every step)
and a box has no exact states, so only field runs look states up.  An
exact expansion keeps its first rows and rebuilds its states when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, cycle, islice
from typing import Sequence

from .arith import FieldElement, GuardedDecimal, NumberField, RealValue
from .arith.numberfield import FLOOR_BITS, integer_rows
from .errors import AmbiguousFloor, MixedFields, NegativeInput


@dataclass(frozen=True)
class ExpansionState:
    """The value tuple entering step ``step``, as ``expand_step`` takes and
    returns it.  A field run finds recurrences by row keys, not values.

    ``rows``, not compared, holds the integer rows after ``step`` steps or
    None; a guarded state keeps its input box as ``values``, its forms as rows.
    """

    values: tuple[RealValue, ...]
    step: int
    rows: tuple[tuple[int, ...], ...] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Expansion:
    """m digit sequences, and for exact inputs the states behind them.

    ``digits[k][i]`` is the step-i digit of sequence k+1.  ``terminated_at``
    is the step whose m-th fractional part was exactly zero, or None.
    ``recurrence`` is the first witness (i, j) of equal states i < j; the
    digits from j on are copied from the cycle i..j-1.  ``start`` holds the
    integer rows of state 0 and the field (None for rationals) of exact
    inputs, and is None for guarded ones.
    """

    order: int
    digits: tuple[tuple[int, ...], ...]
    terminated_at: int | None
    recurrence: tuple[int, int] | None
    start: tuple[tuple, NumberField | None] | None = None

    def __len__(self) -> int:
        return len(self.digits[0])

    @property
    def is_terminated(self) -> bool:
        return self.terminated_at is not None

    @cached_property
    def states(self) -> tuple[ExpansionState, ...] | None:
        """``states[i]`` is the state that produced step i's digits, up to
        step j - 1 of a recurrence (i, j); None for guarded inputs.  Built on
        first read by replaying the rows: one field inverse per state."""
        if self.start is None:
            return None
        rows, field = self.start
        steps = len(self) if self.recurrence is None else self.recurrence[1]
        out = []
        for i, digits in enumerate(islice(zip(*self.digits), steps)):
            out.append(ExpansionState(_values(rows, field), i, rows))
            rows = _row_step(rows, digits)
        return tuple(out)


def expand_step(state: ExpansionState) -> tuple[tuple[int, ...], ExpansionState | None]:
    """One expansion step, a run of limit 1: the digit tuple and the next
    state (None on exact termination).  The state carries its rows along;
    an exact one also comes out as values, which costs one inverse."""
    rows, field, run = _start(state.values, state.rows)
    (digits,), rows, _ = run(rows, state.step, 1)
    if not any(rows[0]):
        return digits, None
    values = state.values if run is _box_run else _values(rows, field)
    return digits, ExpansionState(values, state.step + 1, rows)


def _row_step(rows, digits):
    """The row step (v_m - a_m v_0, v_0, v_1 - a_1 v_0, ..., v_(m-1) - a_(m-1) v_0)."""
    v0 = rows[0]
    rests = [tuple([c - a * c0 for c, c0 in zip(v, v0)]) for v, a in zip(rows[1:], digits)]
    return (rests[-1], v0, *rests[:-1])


def _values(rows, field: NumberField | None) -> tuple:
    """The value tuple (v_1/v_0, ..., v_m/v_0) of exact rows."""
    v0, *vs = rows
    if field is None:
        return tuple(Fraction(v[0], v0[0]) for v in vs)
    inv = field.element(v0).inverse()
    return tuple(field.element(v) * inv for v in vs)


def _forms_step(forms, step: int):
    """Step the integer forms of a guarded box; refuse unless the whole box
    floors alike and no point of it terminates."""
    v0, *vs = forms
    digits = tuple(v[0] // v0[0] for v in vs)  # the floors at the all-low corner
    nxt = _row_step(forms, digits)
    for k, (v, rest) in enumerate(zip(vs, (*nxt[2:], nxt[0])), 1):
        if _least(rest) < 0 or _least([c0 - c for c, c0 in zip(rest, v0)]) <= 0:
            # The box floors apart, so the floor of its hull refuses.
            lo, hi = _ratio_end(v, v0, 1), _ratio_end(v, v0, -1)
            try:
                GuardedDecimal((lo + hi) / 2, (hi - lo) / 2).floor()
            except AmbiguousFloor as exc:
                raise AmbiguousFloor(
                    f"component {k} at step {step}: {exc}", exc.extra_digits_hint, step, k
                ) from None
    _check_nonnegative(digits, step)
    if _least(nxt[0]) == 0:
        raise AmbiguousFloor(
            f"component {len(digits)} at step {step} may have fractional "
            "part exactly zero: the guard band reaches zero; supply more trusted digits",
            step=step,
            component=len(digits),
        )
    return digits, nxt


def _box_run(forms, step: int, limit: int):
    """``limit`` steps of a box's forms from step ``step``, or the refusal of
    the first it cannot certify.  An order-1 box runs Euclid on its corners
    (v_0(0), v_1(0)) and (v_0(1), v_1(1)) in lockstep while both give one
    quotient a >= 0 and neither remainder is 0, which is when ``_forms_step``
    certifies a, so where they stall ``_forms_step`` refuses; every step of a
    higher order is ``_forms_step``."""
    out = []
    if len(forms) == 2:
        (q, dq), (p, dp) = forms
        q1, p1 = q + dq, p + dp
        for _ in range(limit):
            a, r = divmod(p, q)
            a1, r1 = divmod(p1, q1)
            if a != a1 or a < 0 or not r or not r1:
                break
            out.append((a,))
            p, q, p1, q1 = q, r, q1, r1
        forms = ((q, q1 - q), (p, p1 - p))
    while len(out) < limit:
        digits, forms = _forms_step(forms, step + len(out))
        out.append(digits)
    return out, forms, None


def _rational_run(rows, step: int, limit: int):
    """Up to ``limit`` steps of rational rows, each one integer, from step
    ``step``, to termination; order 1 with v_1 >= 0 is ``_euclid``."""
    if len(rows) == 2 and rows[1][0] >= 0:
        return (*_euclid(rows, limit), None)
    out = []
    for i in range(step, step + limit):
        digits = tuple(v[0] // rows[0][0] for v in rows[1:])
        _check_nonnegative(digits, i)
        out.append(digits)
        rows = _row_step(rows, digits)
        if not any(rows[0]):
            break
    return out, rows, None


def _field_run(field: NumberField, rows, step: int, limit: int):
    """Up to ``limit`` steps of field rows from step ``step``, to termination
    or to the first state equal to an earlier one, whose witness (j, i) it
    returns.  It keys every state it reaches (``NumberField.ratio_key``),
    which proves each v_0 a unit or raises ``ReducibleModulus``.

    Beside the exact rows it steps two images of them by the same digits:
    their key images mod M, and enclosures [lo, hi] of their values at
    theta, as v_k - a*v_0 lies in [lo_k - a*hi_0, hi_k - a*lo_0] for a >= 0.
    Each step is one ``NumberField.ratio_floors`` call, which floors on the
    stepped enclosures while they decide and encloses afresh when they do not."""
    bits = FLOOR_BITS  # each enclosure is made at the precision the last one needed
    boxes = None  # the enclosures of the rows, once made
    m, images = field.key_images(rows)
    seen: dict[tuple | None, list] = {}  # key (None: no key) -> [(step, rows)] of its states
    out = []
    key = field.ratio_key(rows, images)
    for i in range(step, step + limit):
        # Equal states share a key unless one has none, and a hit is confirmed
        # exactly; at most one earlier state can match, so the order is free.
        rivals = chain(*seen.values()) if key is None else seen.get(key, []) + seen.get(None, [])
        for j, earlier in rivals:
            if field.same_point(earlier, rows):
                return out, rows, (j, i)
        seen.setdefault(key, []).append((i, rows))
        digits, bits, boxes = field.ratio_floors(rows, bits, boxes)
        _check_nonnegative(digits, i)
        out.append(digits)
        rows = _row_step(rows, digits)
        if not any(rows[0]):
            break
        w0, *ws = images
        ws = [(w - a * w0) % m for w, a in zip(ws, digits)]
        images = (ws[-1], w0, *ws[:-1])
        (lo0, hi0), *ends = boxes
        ends = [(lo - a * hi0, hi - a * lo0) for (lo, hi), a in zip(ends, digits)]
        boxes = (ends[-1], boxes[0], *ends[:-1])
        key = field.ratio_key(rows, images)
    return out, rows, None


def _euclid(rows, limit: int):
    """Up to ``limit`` quotients of order-1 rational rows ((v_0,), (v_1,)),
    v_1 >= 0, by Euclid's algorithm, ending at remainder 0."""
    (q,), (p,) = rows
    out = []
    for _ in range(limit):
        a, r = divmod(p, q)
        out.append((a,))
        p, q = q, r
        if not r:
            break
    return out, ((q,), (p,))


def _box_forms(box) -> tuple[tuple[int, ...], ...]:
    """D*(1, x_1, ..., x_m) in the coordinates (1, t_1, ..., t_m) of the unit
    cube, x_j = lo_j + t_j*(hi_j - lo_j), D the lcm of the bound denominators."""
    bounds = [g.bounds() for g in box]
    return integer_rows(
        [(lo,) + tuple((hi - lo) * (j == k) for j in range(len(box)))
         for k, (lo, hi) in enumerate(bounds)]
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


def expand(values: Sequence[RealValue | int], max_depth: int) -> Expansion:
    """One run of the rows of ``values`` for up to ``max_depth`` digit
    tuples, to termination or to the first exact state recurrence, whose
    cycle fills the rest."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    rows, field, run = _start(values)
    start = None if run is _box_run else (rows, field)  # a box has no exact states
    out, rows, recurrence = run(rows, 0, max_depth)
    for j, digits in enumerate(out[1:], 1):
        if digits[0] < 1:
            raise AssertionError(
                f"first-sequence digit {digits[0]} < 1 at step {j}; "
                "expansion invariant broken"
            )
    terminated_at = None if any(rows[0]) else len(out) - 1
    if recurrence is not None:
        out += islice(cycle(out[recurrence[0] :]), max_depth - len(out))
    return Expansion(len(rows) - 1, tuple(zip(*out)), terminated_at, recurrence, start)


def _start(values, rows=None):
    """(rows, field, run) of a value tuple; the only code that reads value
    types.  Ints count as rationals; an empty tuple, a non-value or mixed
    backends or fields are refused.  ``rows`` are the integer rows (those
    given, once a state carries them), ``field`` is None but for field
    elements, and ``run(rows, i, limit)`` is the backend's run from step i:
    (digit tuples, the rows after them, recurrence or None)."""
    vals = tuple(Fraction(v) if isinstance(v, int) else v for v in values)
    if not vals:
        raise ValueError("at least one value required")

    def backend(x):
        if isinstance(x, Fraction):
            return "rational"
        if isinstance(x, FieldElement):
            return x.field
        if isinstance(x, GuardedDecimal):
            return "guarded"
        raise TypeError(f"not a real value: {x!r}")

    kinds = {backend(x) for x in vals}
    if len(kinds) > 1:
        raise MixedFields(
            "all expansion inputs must share one backend (and one field); got "
            + ", ".join(sorted(str(k) for k in kinds))
        )
    (kind,) = kinds
    if kind == "guarded":
        return rows or _box_forms(vals), None, _box_run
    if kind == "rational":
        return rows or integer_rows([(x,) for x in vals]), None, _rational_run
    return rows or integer_rows([x.coords for x in vals]), kind, partial(_field_run, kind)
