"""The CLI goldens: each case is the argv of one ``bcf`` command and the file
under ``tests/golden`` that holds its stdout, byte for byte; every case
exits 0.

The pytest suite reads ``CASES``.  Run as a script, with the standard
library alone on the path::

    PYTHONPATH=src python -S tests/cli_goldens.py

it runs ``bcf.cli.main`` on every case and exits 1, printing a diff, if any
output or exit code differs.
"""

import contextlib
import difflib
import io
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
_QUARTIC = "alg:poly=-2,0,0,0,1;elem={};lo=1;hi=2"
_CBRT2_WIDE = "alg:poly=-2,0,0,1;elem={};lo=0;hi=100"  # Newton starts far from the root

CASES = [
    (["expand", "rat:7/4"], "expand_rat74.txt"),
    # A 200-digit rational that terminates at step 377.
    (["expand", f"rat:{3**420 + 7}/{2**660 + 1}", "--depth", "1000"], "expand_rat_euclid.txt"),
    # A 2000-digit rational cut at depth 3000 inside a chunk of Euclid's quotients
    # read off the top bits, after a chunk refused at quotient 2305.
    (["expand", f"rat:{5**2860 + 5}/{3**4000 + 2}", "--depth", "3000", "--format", "json"],
     "expand_rat_deep_cut_json.json"),
    # 50 trusted digits of sqrt(2) certify all 60 tuples asked for.
    (["expand", "dec:1.41421356237309504880168872420969807856967187537694,guard=2",
      "--depth", "60"], "expand_dec_sqrt2.txt"),
    (["expand", *(_QUARTIC.format(e) for e in ("0,1", "0,0,1", "0,0,0,1")),
      "--depth", "12", "--period", "--format", "json"], "expand_quartic_period.json"),
    # theta = (1 - sqrt 5) / 2 < 0 puts Newton and the sign tests at negative points.
    (["period", "alg:poly=-1,-1,1;elem=1,-1;lo=-1;hi=0", "--depth", "20", "--format", "json"],
     "period_neg_root_json.json"),
    (["expand", _CBRT2_WIDE.format("0,1"), _CBRT2_WIDE.format("0,0,1"), "--depth", "60",
      "--period"], "expand_cbrt2_pair_wide.txt"),
    (["convergents", "--inline", "(1)/(1)", "--upto", "5", "--format", "json"],
     "convergents_unit_upto5.json"),
    # An order-3 spec whose reduced values have denominators other than X_0.
    (["convergents", "--inline", "1 (1 2)/0 (3 1)/2 (0 2)", "--upto", "40", "--places", "30",
      "--format", "json"], "convergents_mixed_upto40_p30.json"),
    # A finite order-1 spec (pi) at 0 places, cut at its end.
    (["convergents", "--inline", "3 7 15 1 292 1 1 1 2", "--upto", "12", "--places", "0"],
     "convergents_pi_head_p0.txt"),
    (["tree", "--inline", "(1)/(1)", "--depth", "2"], "tree_unit_alpha_d2.txt"),
    (["tree", "--inline", "(1)/(0)", "--depth", "2"], "tree_moore_alpha_d2.txt"),
    (["tree", "--inline", "(1)/(1)", "--depth", "1", "--which", "beta"], "tree_unit_beta_d1.txt"),
    # A negative value and a tolerance above 1: several c0 per c1, fraction residuals.
    (["cubic-hunt", "--value", "rat:-7/3", "--height", "2", "--tol", "5/2", "--places", "3"],
     "cubic_hunt_neg73_tol52_p3.txt"),
    # The meta line echoes a fraction coordinate of the element.
    (["expand", "alg:poly=-2,0,1;elem=1/2,3;lo=1;hi=3/2", "--depth", "5", "--verbose"],
     "expand_alg_fraction_elem_verbose.txt"),
]


def run(argv) -> tuple[int, str]:
    """The exit code and stdout of ``bcf argv``."""
    from bcf.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def check() -> int:
    """0 if every case matches its golden, else 1 after printing the diffs."""
    failed = 0
    for argv, fixture in CASES:
        code, out = run(argv)
        expected = (GOLDEN / fixture).read_text()
        if (code, out) != (0, expected):
            failed += 1
            print(f"{fixture}: exit {code}")
            sys.stdout.writelines(difflib.unified_diff(
                expected.splitlines(True), out.splitlines(True), fixture, "bcf output"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check())
