"""Reconstruction of numbers from digit sequences.

One expansion step, inverted, is a projective map with a non-negative
integer (m+1)x(m+1) matrix.  Truncating at depth n sets x(n) = a(n), so
the depth-n convergent is a column of the product of the matrices of the
digit tuples a(0)..a(n).  One more digit tuple turns the product's columns
(c_0, c_1, ..., c_m) into (c_m, c_0 + sum_k a_k c_k, c_1, ..., c_(m-1)),
and the new column (X_0, ..., X_m) is the convergent (X_1/X_0, ...,
X_m/X_0); for m = 1 this is p_n = a_n p_(n-1) + p_(n-2).  X_0 >= 1 because
first-sequence digits past index 0 are >= 1.  The CLI reads its cells off
these integer columns (``convergent_columns``) without building fractions.
The order-2 case also renders as the two-branch tree where a-nodes split
into (b_(i+1) over a_(i+1)) and b-nodes into (1 over a_(i+1)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .errors import InsufficientDigits, NoConvergence, UnsupportedOrder
from .expansion import Expansion
from .periodicity import PROVEN, PeriodReport


@dataclass(frozen=True)
class DigitSpec:
    """m digit sequences: a finite head plus an optional repeating cycle."""

    order: int
    head: tuple[tuple[int, ...], ...]
    cycle: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        m = self.order
        if m < 1:
            raise ValueError("order must be >= 1")
        if len(self.head) != m:
            raise ValueError(f"expected {m} head sequences, got {len(self.head)}")
        head_lens = {len(seq) for seq in self.head}
        if len(head_lens) > 1:
            raise ValueError("head sequences must share one length")
        _check_digits(self.head, "head")
        if self.cycle is not None:
            if len(self.cycle) != m:
                raise ValueError(f"expected {m} cycle sequences, got {len(self.cycle)}")
            cycle_lens = {len(seq) for seq in self.cycle}
            if cycle_lens != {len(self.cycle[0])} or len(self.cycle[0]) == 0:
                raise ValueError("cycle sequences must share one positive length")
            _check_digits(self.cycle, "cycle")
            for d in self.cycle[0]:
                if d < 1:
                    raise ValueError(
                        "first-sequence cycle digits must be >= 1 (each recurs "
                        "at indices >= 1)"
                    )
        for i, d in enumerate(self.head[0]):
            if i >= 1 and d < 1:
                raise ValueError(
                    f"first-sequence digit at index {i} must be >= 1, got {d}"
                )

    @property
    def max_depth(self) -> int | None:
        """Deepest valid truncation index; None when a cycle extends forever."""
        if self.cycle is not None:
            return None
        return len(self.head[0]) - 1

    def columns(self) -> Iterator[tuple[int, ...]]:
        """Digit tuples (a_1(i), ..., a_m(i)) for i = 0, 1, ...: the head,
        then the cycle repeated forever (nothing more without a cycle)."""
        yield from zip(*self.head)
        if self.cycle is not None:
            yield from itertools.cycle(zip(*self.cycle))

    @classmethod
    def constant(cls, digits: Sequence[int]) -> "DigitSpec":
        """Cycle-only spec repeating one digit tuple forever."""
        return cls(
            order=len(digits),
            head=tuple(() for _ in digits),
            cycle=tuple((int(d),) for d in digits),
        )

    @classmethod
    def from_expansion(
        cls, exp: Expansion, period: PeriodReport | None = None
    ) -> "DigitSpec":
        """Digit spec of an expansion; a proven period folds into the cycle."""
        if period is not None and period.status == PROVEN:
            p, q = period.preperiod, period.period
            return cls(
                order=exp.order,
                head=tuple(seq[:p] for seq in exp.digits),
                cycle=tuple(seq[p : p + q] for seq in exp.digits),
            )
        return cls(order=exp.order, head=tuple(exp.digits), cycle=None)


def _check_digits(seqs, label: str):
    for seq in seqs:
        for d in seq:
            if not isinstance(d, int):
                raise ValueError(f"{label} digits must be integers, got {d!r}")
            if d < 0:
                raise ValueError(f"{label} digits must be >= 0, got {d}")


def _check_depth(spec: DigitSpec, depth: int):
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if spec.max_depth is not None and depth > spec.max_depth:
        raise InsufficientDigits(
            f"spec holds {len(spec.head[0])} digits per sequence, need {depth + 1} "
            "and no cycle is present"
        )


def unroll(spec: DigitSpec, depth: int) -> list[list[int]]:
    """Digits of every sequence through index ``depth`` (depth+1 each)."""
    _check_depth(spec, depth)
    return [list(seq) for seq in zip(*itertools.islice(spec.columns(), depth + 1))]


def _product_columns(spec: DigitSpec) -> Iterator[list[int]]:
    """The new integer column (X_0, ..., X_m) at depths 0, 1, 2, ..."""
    m = spec.order
    cols = [tuple(int(i == j) for i in range(m + 1)) for j in range(m + 1)]
    for digits in spec.columns():
        new = [sum(map(mul, digits, row), c0) for c0, *row in zip(*cols)]
        cols = [cols[m], new, *cols[1:m]]
        yield new


def _ratios(column: list[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, column[0]) for v in column[1:])


def convergents(spec: DigitSpec) -> Iterator[tuple[Fraction, ...]]:
    """Exact convergent tuples at depths 0, 1, 2, ... by the forward
    recurrence; the stream ends with the digits of a cycle-free spec."""
    return map(_ratios, _product_columns(spec))


def convergent(spec: DigitSpec, depth: int) -> tuple[Fraction, ...]:
    """Exact rational convergent tuple at truncation ``depth``."""
    _check_depth(spec, depth)
    return _ratios(next(itertools.islice(_product_columns(spec), depth, None)))


def convergent_columns(spec: DigitSpec, upto: int) -> Iterator[list[int]]:
    """The integer columns (X_0, ..., X_m) at every depth 0..upto."""
    _check_depth(spec, upto)
    return itertools.islice(_product_columns(spec), upto + 1)


def convergent_table(spec: DigitSpec, upto: int) -> list[tuple[Fraction, ...]]:
    """Convergents at every depth 0..upto."""
    return list(map(_ratios, convergent_columns(spec, upto)))


def reconstruct(
    spec: DigitSpec, tol, max_depth: int = 1000
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Convergent tuple deep enough that three consecutive depth steps each
    moved every component by less than ``tol``.

    Returns (tuple, observed bound).  This is an empirical stopping rule,
    not an error proof.  A finite (cycle-free) spec evaluates exactly at
    its terminal depth with bound 0.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if spec.cycle is None:
        return convergent(spec, max(spec.max_depth, 0)), Fraction(0)
    # Between columns X and Y component k moves by |X_k*Y_0 - Y_k*X_0| / (X_0*Y_0):
    # one denominator for all, so the largest numerator is compared with tol.
    columns = _product_columns(spec)
    prev = next(columns)
    recent: list[tuple[int, int]] = []
    for cur in itertools.islice(columns, max_depth):
        num = max(abs(x * cur[0] - y * prev[0]) for x, y in zip(prev[1:], cur[1:]))
        den = prev[0] * cur[0]
        prev = cur
        if num * tol.denominator < tol.numerator * den:
            recent.append((num, den))
            if len(recent) == 3:
                return _ratios(cur), max(Fraction(n, d) for n, d in recent)
        else:
            recent.clear()
    raise NoConvergence(
        f"convergents still moved >= {tol} after depth {max_depth}"
    )


def render_tree(spec: DigitSpec, depth: int, which: str = "alpha") -> str:
    """ASCII rendering of the order-2 tree down to ``depth`` levels.

    a-nodes branch into (up: b_(i+1), dn: a_(i+1)); b-nodes into
    (up: literal 1, dn: a_(i+1)); a node at the depth limit shows just its
    digit.  The legend states the combination rule.
    """
    if spec.order != 2:
        raise UnsupportedOrder(
            f"tree rendering is defined for order 2 only, got order {spec.order}"
        )
    if which not in ("alpha", "beta"):
        raise ValueError("which must be 'alpha' or 'beta'")
    if not 0 <= depth <= 6:
        raise ValueError("tree depth must be between 0 and 6")
    digits = unroll(spec, depth)

    def node(k: int, level: int) -> list[str]:
        lines = [str(digits[k][level])]
        if level < depth:
            up = node(1, level + 1) if k == 0 else ["1"]
            dn = node(0, level + 1)
            lines += ["+- up: " + up[0], *("|      " + rest for rest in up[1:])]
            lines += ["`- dn: " + dn[0], *("       " + rest for rest in dn[1:])]
        return lines

    body = node(0 if which == "alpha" else 1, 0)
    header = [
        f"{which} tree, depth {depth}",
        "node p with branches (up: q, dn: r) stands for p + q/r",
    ]
    return "\n".join(header + body) + "\n"
