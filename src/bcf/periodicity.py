"""Eventual-periodicity reports.

A period is *proven* only by an exact state recurrence, which
``expansion.expand`` finds in the same pass that computes the digits:
the dynamics are deterministic, so the first recurrence pins down both
the minimal preperiod and the minimal period.  Digit sequences from
inexact (guarded-decimal) runs only ever get an *apparent* period from a
repeating suffix scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expansion import Expansion

PROVEN = "proven"
APPARENT = "apparent"
NONE_WITHIN_DEPTH = "none-within-depth"


@dataclass(frozen=True)
class PeriodReport:
    """``preperiod`` and ``period`` are meaningful unless status is
    none-within-depth (then both are 0)."""

    status: str
    preperiod: int
    period: int
    witness: tuple[int, int] | None

    @property
    def found(self) -> bool:
        return self.status != NONE_WITHIN_DEPTH


def apparent_digit_period(digits: tuple[tuple[int, ...], ...]) -> PeriodReport:
    """Repeating-suffix heuristic over digit sequences alone.

    Finds the smallest cycle length q (then the smallest preperiod p) such
    that every sequence is q-periodic from p to the end, with at least two
    full cycles observed.  The result is labeled apparent: digits can
    repeat without the underlying state repeating.
    """
    if not digits:
        return PeriodReport(NONE_WITHIN_DEPTH, 0, 0, None)
    n = len(digits[0])
    columns = list(zip(*digits))
    for q in range(1, n // 2 + 1):
        # The preperiods that work for q are all p past the last mismatch,
        # so scanning back to it finds the smallest one.
        p = n - q
        while p > 0 and columns[p - 1] == columns[p - 1 + q]:
            p -= 1
        if p <= n - 2 * q:
            return PeriodReport(APPARENT, preperiod=p, period=q, witness=None)
    return PeriodReport(NONE_WITHIN_DEPTH, 0, 0, None)


def period_report(exp: Expansion) -> PeriodReport:
    """Proven period of an exact expansion from its state recurrence
    witness (i, j), or none within its depth; apparent digit period for
    inexact expansions."""
    if exp.recurrence is not None:
        i, j = exp.recurrence
        return PeriodReport(PROVEN, preperiod=i, period=j - i, witness=exp.recurrence)
    if exp.start is not None:  # exact inputs: a period is proven or absent
        return PeriodReport(NONE_WITHIN_DEPTH, 0, 0, None)
    return apparent_digit_period(exp.digits)
