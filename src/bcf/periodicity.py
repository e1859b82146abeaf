"""Eventual-periodicity detection by exact recurrence of expansion states.

A period is *proven* only when two exact state snapshots are identical;
the dynamics are deterministic, so the first recurrence pins down both the
minimal preperiod and the minimal period.  Digit sequences from inexact
(guarded-decimal) runs only ever get an *apparent* period from a repeating
suffix scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InexactBackend
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


def detect_period(exp: Expansion) -> PeriodReport:
    """Earliest exact state recurrence in an exact expansion.

    Returns a proven report (preperiod p, period q, witness indices with
    equal states) or none-within-depth.  Digit periodicity is re-verified
    against the recorded digit sequences.
    """
    if exp.states is None:
        raise InexactBackend(
            "period proof needs exact state snapshots; this expansion used an "
            "inexact backend"
        )
    seen: dict = {}
    for j, state in enumerate(exp.states):
        key = state.values
        if key in seen:
            i = seen[key]
            _verify_digit_period(exp, i, j - i)
            return PeriodReport(PROVEN, preperiod=i, period=j - i, witness=(i, j))
        seen[key] = j
    return PeriodReport(NONE_WITHIN_DEPTH, 0, 0, None)


def _verify_digit_period(exp: Expansion, preperiod: int, period: int):
    n = len(exp)
    for seq in exp.digits:
        for t in range(preperiod, n - period):
            if seq[t] != seq[t + period]:
                raise AssertionError(
                    f"state recurrence at preperiod {preperiod}, period {period} "
                    f"contradicts digits at step {t}"
                )


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
    """Proven period of an exact expansion; apparent digit period otherwise."""
    if exp.states is not None:
        return detect_period(exp)
    return apparent_digit_period(exp.digits)
