"""Running benchmark jobs through ``bcf`` and checking what they return.

Every call goes through a module attribute (``cli.main``,
``expansion.expand``, ...) looked up at call time, so the tracer can swap
in its wrappers after import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from bcf import cli, closedform, evaluation, expansion, formats, periodicity
from bcf.errors import AmbiguousFloor

from inputs import (Job, convergents, euclid, kbonacci_ratio, parse_digit_file,
                    parse_inline, theta_digits)

PROBE_TOL = Fraction(1, 10**20)
HUNT_TOL = Fraction(1, 10**9)
HUNT_HEIGHT = 10
RAT_DEPTH = 100_000


@dataclass
class Outcome:
    digest: str
    tuples: int | None  # digit or convergent tuples produced; None for probes
    detail: object  # whatever the checker needs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run(job: Job, ref: dict) -> Outcome:
    """Execute one job; the caller times this call and nothing else."""
    if job.kind == "cli":
        code, text = run_cli(job.args)
        return Outcome(_sha(f"{code}\n{text}"), _cli_tuples(job, code, text), (code, text))
    if job.kind == "probe":
        spec = formats.parse_inline_digits(job.args[0])
        values, bound = evaluation.reconstruct(spec, PROBE_TOL)
        hits = closedform.cubic_hunt(values[0], height=HUNT_HEIGHT, tol=HUNT_TOL,
                                     value_error=bound)
        coeffs = sorted(h.coeffs for h in hits)
        return Outcome(_sha(json.dumps(coeffs)), None, coeffs)
    if job.kind == "rat":
        value = formats.parse_value_spec(job.args[0])
        exp = expansion.expand([value], RAT_DEPTH)
        return Outcome(_sha(json.dumps(exp.digits)), len(exp), exp)
    if job.kind == "dec":
        return _run_dec(job, ref["certified"])
    raise ValueError(f"unknown job kind {job.kind!r}")


def _cli_tuples(job: Job, code: int, text: str) -> int | None:
    if code != 0:
        return None
    if job.args[0] == "convergents":
        return len(json.loads(text)["convergents"])
    return int(job.args[job.args.index("--depth") + 1])


def _run_dec(job: Job, certified: int) -> Outcome:
    # Ask for one tuple past what the seed commit certified: it must refuse
    # with AmbiguousFloor or certify it.  Then take the certified prefix.
    values = [formats.parse_value_spec(s) for s in job.args]
    try:
        exp = expansion.expand(values, certified + 1)
    except AmbiguousFloor:
        exp = expansion.expand(values, certified)
    report = periodicity.apparent_digit_period(exp.digits)
    summary = [exp.digits, report.status, report.preperiod, report.period]
    return Outcome(_sha(json.dumps(summary)), len(exp), (exp, report))


def certified_depth(job: Job) -> int:
    """Steps certified before the guard band refuses (recording only)."""
    values = [formats.parse_value_spec(s) for s in job.args]
    state = expansion.ExpansionState(tuple(values), 0)
    steps = 0
    try:
        while state is not None:
            _, state = expansion.expand_step(state)
            steps += 1
    except AmbiguousFloor:
        return steps
    raise AssertionError(f"{job.key}: literal expanded without refusing")


# -- checks ------------------------------------------------------------------------


def check(job: Job, out: Outcome, ref: dict) -> str | None:
    """Why the outcome is wrong, or None.  ``ref`` is the job's recorded entry."""
    if job.kind == "dec":
        return _check_dec(job, out, ref)
    problem = _independent(job, out)
    if problem:
        return problem
    if out.digest != ref["digest"]:
        return "output differs from the digest recorded at the seed commit"
    return None


def _independent(job: Job, out: Outcome) -> str | None:
    closed = job.const.closed if job.const else None
    if job.kind == "cli":
        code, text = out.detail
        if code != 0:
            return f"exit code {code}"
        if closed and job.args[0] in ("expand", "period"):
            return _check_closed_digits(job, text)
        if job.cls == "conv-unit":
            m = job.args[2].count("/") + 1
            for row in json.loads(text)["convergents"]:
                if Fraction(row["values"][0]) != kbonacci_ratio(m + 1, row["depth"]):
                    return f"alpha convergent at depth {row['depth']} is not a k-bonacci ratio"
    elif job.kind == "probe" and closed:
        a, b = closed[1], closed[2]
        if (1, -a, -b, -1) not in out.detail:
            return f"cubic_hunt missed alpha_cubic({a}, {b})"
    elif job.kind == "rat":
        exp = out.detail
        p, q = map(int, job.args[0][4:].split("/"))
        if not exp.is_terminated or list(exp.digits[0]) != euclid(p, q):
            return "rational digits differ from the Euclid quotients"
    return None


def _check_closed_digits(job: Job, text: str) -> str | None:
    const = job.const
    if text.startswith("{"):
        rows = [[int(d) for d in seq] for seq in json.loads(text)["digits"]]
    else:
        found = parse_digit_file(text)
        rows = [found.get(f"head[{k + 1}]", []) + found.get(f"cycle[{k + 1}]", [])
                for k in range(const.order)]
    for k, row in enumerate(rows):
        if not row or any(d != const.expected_digit(k) for d in row):
            return f"component {k + 1} digits break the closed form {const.closed}"
    return None


def check_setup(job: Job, code: int, text: str) -> str | None:
    """Independent check of the setup job, which has no recorded digest."""
    if code != 0:
        return f"exit code {code}"
    if job.const is not None:
        return _check_closed_digits(job, text)
    if job.args[0] == "convergents":
        heads, cycles = parse_inline(job.args[2])
        want = convergents(heads, cycles, int(job.args[4]))
        got = [tuple(map(Fraction, row["values"])) for row in json.loads(text)["convergents"]]
        return None if got == want else "convergents differ from the backward recurrence"
    p, q = map(int, job.args[1][4:].split("/"))
    digits = parse_digit_file(text)["head[1]"]
    return None if digits == euclid(p, q) else "rational digits differ from Euclid"


def exact_digits(const, k: int, n: int) -> list[int]:
    """First n exact digits of component k, from the closed form or, for a
    lone theta, from the classical continued fraction of its bracket."""
    if const.closed:
        return [const.expected_digit(k)] * n
    return theta_digits(const, n)


def _check_dec(job: Job, out: Outcome, ref: dict) -> str | None:
    exp, report = out.detail
    n = len(exp)
    if n < ref["certified"]:
        return f"certified {n} tuples, fewer than the {ref['certified']} recorded"
    for k, seq in enumerate(exp.digits):
        want = exact_digits(job.const, k, n)
        if list(seq) != want:
            return f"component {k + 1} digits are not a prefix of the exact expansion"
    if report.found:
        p, q = report.preperiod, report.period
        if p + 2 * q > n or any(seq[t] != seq[t + q] for seq in exp.digits
                                for t in range(p, n - q)):
            return f"apparent period ({p}, {q}) does not hold on the digits"
    if n == ref["certified"] and out.digest != ref["digest"]:
        return "output differs from the digest recorded at the seed commit"
    return None
