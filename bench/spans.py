"""Spans around the calls into each ``bcf`` layer, recorded from outside it.

``Tracer.install`` replaces each traced function or method with a wrapper
wherever the original object is bound: in its own module, in every ``bcf``
module that imported it by name, and under every alias in its class (so
``FieldElement.__rmul__`` is traced with ``__mul__``).  ``uninstall`` puts
the originals back.  A target that no longer exists reads as absent.

Spans are kept in flat arrays (name, start, end, parent, job) and written
out at the end.  A span's self time is its duration minus the time its
direct children cover; calls are single-threaded, so children nest.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

from bcf.errors import PrecisionError

# metric prefix -> (module, attribute path)
TARGETS = {
    "polynomials.eval_interval": ("bcf.arith.polynomials", "eval_interval"),
    "polynomials.bisect_once": ("bcf.arith.polynomials", "bisect_once"),
    "numberfield.floor": ("bcf.arith.numberfield", "FieldElement.floor"),
    "numberfield.sign": ("bcf.arith.numberfield", "FieldElement.sign"),
    "numberfield.inverse": ("bcf.arith.numberfield", "FieldElement.inverse"),
    "numberfield.mul": ("bcf.arith.numberfield", "FieldElement.__mul__"),
    "numberfield.interval": ("bcf.arith.numberfield", "FieldElement.interval"),
    "guarded.floor": ("bcf.arith.guarded", "GuardedDecimal.floor"),
    "guarded.reciprocal": ("bcf.arith.guarded", "GuardedDecimal.reciprocal"),
    "guarded.divide": ("bcf.arith.guarded", "GuardedDecimal.divide"),
    "expansion.expand_step": ("bcf.expansion", "expand_step"),
    "expansion.expand": ("bcf.expansion", "expand"),
    "periodicity.detect_period": ("bcf.periodicity", "detect_period"),
    "periodicity.apparent_digit_period": ("bcf.periodicity", "apparent_digit_period"),
    "evaluation.backward_values": ("bcf.evaluation", "backward_values"),
    "evaluation.convergent_table": ("bcf.evaluation", "convergent_table"),
    "evaluation.reconstruct": ("bcf.evaluation", "reconstruct"),
    "closedform.cubic_hunt": ("bcf.closedform", "cubic_hunt"),
    "formats.parse_value_spec": ("bcf.formats", "parse_value_spec"),
    "formats.parse_inline_digits": ("bcf.formats", "parse_inline_digits"),
    "formats.dumps_digit_file": ("bcf.formats", "dumps_digit_file"),
    "formats.decimal_string": ("bcf.formats", "decimal_string"),
    "cli.main": ("bcf.cli", "main"),
}

# Work counts read from results rather than from call counts.
COUNTS = (
    "numberfield.coord_bits_max",  # largest coordinate numerator/denominator, bits
    "expansion.states_held",  # state snapshots returned by expand
    "guarded.refusals",  # expand calls ending in a precision refusal
    "closedform.candidates",  # candidate cubics returned by cubic_hunt
)

JOB = "job"


class Tracer:
    def __init__(self):
        self.names = [JOB, *TARGETS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.job = -1
        self.absent: list[str] = []
        self.patched: list[tuple[object, str, object]] = []
        self.job_counts: list[Counter] = []
        self._results: list = []

    # -- patching -------------------------------------------------------------

    def install(self):
        for name, (modname, path) in TARGETS.items():
            owner = _resolve(modname, path.rpartition(".")[0])
            orig = getattr(owner, path.rpartition(".")[2], None) if owner else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            holders = [owner] if isinstance(owner, type) else [
                m for key, m in list(sys.modules.items())
                if m is not None and (key == "bcf" or key.startswith("bcf."))
            ]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapper)
                        self.patched.append((holder, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self.patched):
            setattr(holder, attr, orig)
        self.patched.clear()

    def _wrap(self, name, fn):
        nid = self.name_id[name]
        clock = time.perf_counter
        keep = name in ("expansion.expand", "closedform.cubic_hunt")
        refusal = name == "expansion.expand"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except PrecisionError:
                if refusal:
                    self.job_counts[self.job]["guarded.refusals"] += 1
                raise
            finally:
                self._close(idx, start, clock())
            if keep:
                self._results.append((name, result))
            return result

        return wrapper

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_job.append(self.job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float):
        self.stack.pop()
        self.span_start[idx] = start
        self.span_end[idx] = end

    # -- jobs -------------------------------------------------------------------

    def run_job(self, fn, *args):
        """Call fn(*args) as one job under a root span; returns (result, seconds)."""
        self.job = len(self.job_counts)
        self.job_counts.append(Counter())
        self.active = True
        idx = self._open(self.name_id[JOB])
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._close(idx, start, end)
            self.active = False
            self._count_results()
        return result, end - start

    def _count_results(self):
        counts = self.job_counts[self.job]
        for name, result in self._results:
            if name == "closedform.cubic_hunt":
                counts["closedform.candidates"] += len(result)
                continue
            states = result.states or ()
            counts["expansion.states_held"] += len(states)
            for state in states:
                for value in state.values:
                    for c in getattr(value, "coords", ()):
                        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                        if bits > counts["numberfield.coord_bits_max"]:
                            counts["numberfield.coord_bits_max"] = bits
        self._results.clear()

    # -- results ----------------------------------------------------------------

    def aggregate(self):
        """Per-name calls and self seconds over all spans; per-job call counts folded in."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
            if name != JOB:
                self.job_counts[self.span_job[i]][name + ".calls"] += 1
        return calls, self_s

    def run_counts(self) -> Counter:
        """Work counts summed over jobs (coord_bits_max takes the maximum)."""
        total = Counter()
        for counts in self.job_counts:
            for key, value in counts.items():
                if key == "numberfield.coord_bits_max":
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        return total

    def dump(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "job"],
            "spans": [
                [self.span_name[i], round(self.span_start[i], 7), round(self.span_end[i], 7),
                 self.span_parent[i], self.span_job[i]]
                for i in range(len(self.span_name))
            ],
        }


def _resolve(modname: str, path: str):
    try:
        obj = importlib.import_module(modname)
    except ImportError:
        return None
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj
