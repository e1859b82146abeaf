"""Acceptance criteria, one test per criterion, tolerances pinned inline.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one PASS line per
criterion.  Criterion 11 additionally records its findings under
``build/conjecture_probe_report.json``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from bcf.arith import IntPolynomial, NumberField
from bcf.closedform import alpha_cubic, cubic_hunt
from bcf.evaluation import DigitSpec, convergent, reconstruct
from bcf.expansion import expand
from bcf.periodicity import PROVEN, period_report
from bcf.sequences import kbonacci
from bcf.cli import main as cli_main
from cli_goldens import CASES as CLI_GOLDENS, GOLDEN

BUILD_DIR = Path(__file__).resolve().parent.parent / "build"

TRIB_FIELD = NumberField(IntPolynomial((-1, -1, -1, 1)), 1, 2)
QUARTIC_FIELD = NumberField(IntPolynomial((-2, 0, 0, 0, 1)), 1, 2)
UNIT = DigitSpec.constant((1, 1))


def tol(exp10: int) -> Fraction:
    return Fraction(1, 10**exp10)


def ok(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_tribonacci_pair_constant_digits():
    th = TRIB_FIELD.theta()
    beta = 1 + th.inverse()
    exp = expand([th, beta], 31)
    assert exp.digits == ((1,) * 31, (1,) * 31)
    assert exp.recurrence == (0, 1)
    assert len(exp.states) == 1
    ok(1, "expanding (alpha, 1 + 1/alpha) gives a=b=1 for 31 steps, witness (0, 1) "
          "proves the state exactly fixed")


def test_criterion_02_fifth_convergent_exact():
    assert convergent(UNIT, 5) == (Fraction(24, 13), Fraction(20, 13))
    ok(2, "unit spec at depth 5 evaluates to exactly 24/13 and 20/13")


def test_criterion_03_tribonacci_constant():
    values, _ = reconstruct(UNIT, tol(8))
    anchor = Fraction("1.83928675521416")
    assert abs(values[0] - anchor) < tol(8)
    lo, hi = NumberField(alpha_cubic(1, 1), 1, 2).theta().interval(tol(10))
    assert abs(values[0] - (lo + hi) / 2) < tol(8)
    ok(3, "reconstruct(unit, 1e-8) matches 1.83928675521416 and the bisection root")


def test_criterion_04_moore_constant():
    values, _ = reconstruct(DigitSpec.constant((1, 0)), tol(8))
    assert abs(values[0] - Fraction("1.4655712318")) < tol(8)
    assert alpha_cubic(1, 0) == IntPolynomial((-1, 0, -1, 1))
    ok(4, "constant (1,0) reconstructs the Moore number; alpha cubic is x^3-x^2-1")


def test_criterion_05_classic_cf_of_tribonacci():
    exp = expand([TRIB_FIELD.theta()], 6)
    assert exp.digits[0] == (1, 1, 5, 4, 2, 305)
    ok(5, "m=1 exact expansion of the Tribonacci root starts [1,1,5,4,2,305]")


def test_criterion_06_quartic_triple_period():
    th = QUARTIC_FIELD.theta()
    exp = expand([th, th**2, th**3], 13)
    assert exp.digits[0] == (1, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2)
    assert exp.digits[1] == (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)
    assert exp.digits[2] == (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)
    report = period_report(exp)
    assert (report.status, report.preperiod, report.period) == (PROVEN, 1, 3)
    ok(6, "(2^(1/4), 2^(1/2), 2^(3/4)) gives {1 (1 1 2)}, {(1 0 0)}, {(1 0 0)}; "
          "preperiod 1, period 3 proven")


def test_criterion_07_tetranacci_anchor():
    values, _ = reconstruct(DigitSpec.constant((1, 1, 1)), tol(12))
    anchors = (
        Fraction("1.92756197548"),
        Fraction("1.78793319384"),
        Fraction("1.51879006367"),
    )
    for got, anchor in zip(values, anchors):
        assert abs(got - anchor) < tol(8)
    x1, x2, x3 = values
    assert abs(x3 - (1 + 1 / x1)) < tol(10)
    assert abs(x2 - (1 + x3 / x1)) < tol(10)
    ok(7, "all-ones order-3 reconstructs the Tetranacci tuple; fixed-point "
          "identities hold to 1e-10")


def test_criterion_08_tribonacci_ratio_identity():
    t = kbonacci(3, 40)
    for n in range(31):
        assert convergent(UNIT, n)[0] == Fraction(t[n + 3], t[n + 2])
    ok(8, "unit-spec alpha convergents equal t(n+3)/t(n+2) exactly for n <= 30")


def test_criterion_09_period1_grid():
    for a in (1, 2, 3):
        for b in (0, 1, 2, 3):
            values, _ = reconstruct(DigitSpec.constant((a, b)), tol(11))
            alpha, beta = values
            assert abs(alpha**3 - a * alpha**2 - b * alpha - 1) < tol(8)
            assert abs(beta - (b + 1 / alpha)) < tol(8)
    ok(9, "reconstructed roots satisfy the period-1 cubic and beta = b + 1/alpha "
          "on the 3x4 grid at 1e-8")


def test_criterion_10_random_rational_regression():
    rng = random.Random(20250808)
    for _ in range(100):
        q = rng.randint(2, 10**6 - 1)
        p = rng.randint(1, 3 * q)
        x = Fraction(p, q)
        exp = expand([x], 100)
        assert exp.is_terminated
        # Euclidean quotients
        quotients, (pp, qq) = [], (x.numerator, x.denominator)
        while True:
            d, r = divmod(pp, qq)
            quotients.append(d)
            if r == 0:
                break
            pp, qq = qq, r
        assert list(exp.digits[0]) == quotients
        spec = DigitSpec.from_expansion(exp)
        assert convergent(spec, len(exp) - 1) == (x,)
    ok(10, "100 random rationals: digits equal Euclid quotients, convergents "
           "round-trip exactly")


def test_criterion_11_conjecture_probe():
    specs = [
        ((1, 2), (1, 1)),
        ((2, 1), (1, 0)),
        ((1, 2), (0, 1)),
        ((2, 2), (1, 0)),
        ((1, 1), (2, 0)),
    ]
    report = []
    for a_cycle, b_cycle in specs:
        spec = DigitSpec(order=2, head=((), ()), cycle=(a_cycle, b_cycle))
        values, bound = reconstruct(spec, tol(20), max_depth=500)
        hits = cubic_hunt(values[0], height=10, tol=tol(9), value_error=bound)
        assert hits, f"no candidate cubic for cycle {a_cycle}/{b_cycle}"
        report.append(
            {
                "a_cycle": list(a_cycle),
                "b_cycle": list(b_cycle),
                "alpha": str(values[0]),
                "alpha_decimal_20": _dec20(values[0]),
                "candidates": [
                    {"coefficients": list(h.coeffs), "residual": str(h.residual)}
                    for h in hits
                ],
            }
        )
    BUILD_DIR.mkdir(exist_ok=True)
    out = BUILD_DIR / "conjecture_probe_report.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    ok(11, f"5 period-2 specs each admit a height-10 candidate cubic "
           f"(report: {out})")


def _dec20(x: Fraction) -> str:
    scaled = x.numerator * 10**20 // x.denominator
    return f"{scaled // 10**20}.{scaled % 10**20:020d}"


def test_criterion_12_golden_cli_outputs(capsys):
    for argv, fixture in CLI_GOLDENS:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first == (GOLDEN / fixture).read_text()
    ok(12, "every CLI golden is byte-identical across runs and matches its "
           "committed fixture")
