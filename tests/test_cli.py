import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcf.cli import build_parser, main
from bcf.errors import BcfError
from bcf.evaluation import convergent_table
from bcf.formats import parse_inline_digits
from cli_goldens import CASES, GOLDEN

TRIB_ALPHA = "alg:poly=-1,-1,-1,1;elem=0,1;lo=1;hi=2"
TRIB_BETA = "alg:poly=-1,-1,-1,1;elem=0,-1,1;lo=1;hi=2"
QUARTIC = [
    "alg:poly=-2,0,0,0,1;elem=0,1;lo=1;hi=2",
    "alg:poly=-2,0,0,0,1;elem=0,0,1;lo=1;hi=2",
    "alg:poly=-2,0,0,0,1;elem=0,0,0,1;lo=1;hi=2",
]


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_floats(text: str):
    """json.loads with a float hook that rejects any binary float."""

    def refuse(tok):
        raise AssertionError(f"float found in JSON output: {tok}")

    return json.loads(text, parse_float=refuse)


def test_expand_rational(capsys):
    code, out, err = run_cli(capsys, ["expand", "rat:7/4", "--depth", "10"])
    assert code == 0
    assert out == "bcf-digits v1\nm: 1\nhead[1]: 1 1 3\nterminated: 2\n"


@pytest.mark.parametrize("argv, fixture", CASES, ids=[fixture for _, fixture in CASES])
def test_cli_golden(capsys, argv, fixture):
    assert run_cli(capsys, argv) == (0, (GOLDEN / fixture).read_text(), "")


# What the goldens pinned above hold.


def test_order1_expand_goldens():
    assert "terminated: 377" in (GOLDEN / "expand_rat_euclid.txt").read_text()
    # All 60 tuples asked of the 50-digit sqrt(2) are certified.
    assert len((GOLDEN / "expand_dec_sqrt2.txt").read_text().splitlines()[2].split()) == 61


def test_expand_quartic_period_matches_golden_json():
    payload = no_floats((GOLDEN / "expand_quartic_period.json").read_text())
    assert payload["period"]["status"] == "proven"
    assert payload["cycle"] == [["1", "1", "2"], ["0", "0", "1"], ["0", "0", "1"]]


def test_convergents_unit_json_golden():
    payload = no_floats((GOLDEN / "convergents_unit_upto5.json").read_text())
    last = payload["convergents"][-1]
    assert last["values"] == ["24/13", "20/13"]
    assert payload["decimal_places"] == 10


def test_convergents_goldens():
    rows = no_floats((GOLDEN / "convergents_mixed_upto40_p30.json").read_text())["convergents"]
    assert rows[3]["values"] == ["4", "1/6", "17/6"]
    assert len(rows) == 41
    pi_lines = (GOLDEN / "convergents_pi_head_p0.txt").read_text().splitlines()
    assert pi_lines[-1] == "8: 833719/265381 ~ 3"


def test_expand_tribonacci_pair_all_ones(capsys):
    code, out, _ = run_cli(capsys, ["expand", TRIB_ALPHA, TRIB_BETA, "--depth", "8"])
    assert code == 0
    assert "head[1]: 1 1 1 1 1 1 1 1" in out
    assert "head[2]: 1 1 1 1 1 1 1 1" in out


def test_expand_pipe_to_convergents(capsys, monkeypatch):
    code, digits_out, _ = run_cli(capsys, ["expand", TRIB_ALPHA, TRIB_BETA, "--depth", "6"])
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        ["convergents", "--digits", "-", "--upto", "5"],
        stdin_text=digits_out,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.splitlines()[-1] == "5: 24/13 ~ 1.8461538461 | 20/13 ~ 1.5384615384"


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    argv = ["expand", *QUARTIC, "--depth", "12", "--period", "--format", "json"]
    first = run_cli(capsys, argv)
    # Options of another call do not leak into the next parse.
    assert run_cli(capsys, ["expand", "rat:7/4", "--verbose"])[0] == 0
    assert run_cli(capsys, argv) == first


def test_expand_pipe_round_trips_quartic_values(capsys, monkeypatch):
    from fractions import Fraction

    from bcf.arith import NumberField

    code, digits_out, _ = run_cli(
        capsys, ["expand", *QUARTIC, "--depth", "20", "--period"]
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        ["convergents", "--digits", "-", "--upto", "30", "--places", "12"],
        stdin_text=digits_out,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    last = out.splitlines()[-1]
    decimals = [cell.split(" ~ ")[1] for cell in last.split(": ", 1)[1].split(" | ")]
    refs = ((-2, 0, 0, 0, 1), (-2, 0, 1), (-8, 0, 0, 0, 1))
    for text, poly in zip(decimals, refs):
        lo, hi = NumberField(poly, 1, 2).theta().interval(Fraction(1, 10**14))
        assert abs(Fraction(text) - (lo + hi) / 2) < Fraction(1, 10**8)


def oracle_convergents(text: str, upto: int, places: int, fmt: str) -> tuple[int, str]:
    """``bcf convergents`` rendered as it was before its cells came off the
    integer columns: a Fraction per cell, rendered one at a time, and the
    JSON document through ``json.dumps(indent=2)``.  Every value is >= 0."""

    def value(x):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def decimal(x):
        scaled = x.numerator * 10**places // x.denominator
        if places == 0:
            return str(scaled)
        intpart, fracpart = divmod(scaled, 10**places)
        return f"{intpart}.{fracpart:0{places}d}"

    spec = parse_inline_digits(text)
    if spec.max_depth is not None:
        upto = min(upto, max(spec.max_depth, 0))
    try:
        table = convergent_table(spec, upto)
    except BcfError as exc:
        return exc.exit_code, ""
    if fmt == "json":
        payload = {
            "m": spec.order,
            "decimal_places": places,
            "convergents": [
                {
                    "depth": n,
                    "values": [value(v) for v in row],
                    "decimals": [decimal(v) for v in row],
                }
                for n, row in enumerate(table)
            ],
        }
        return 0, json.dumps(payload, indent=2) + "\n"
    lines = [
        f"{n}: " + " | ".join(f"{value(v)} ~ {decimal(v)}" for v in row)
        for n, row in enumerate(table)
    ]
    return 0, "".join(line + "\n" for line in lines)


@st.composite
def inline_specs(draw):
    """Inline digit text: orders 1-4, heads of 0-3 digits, cycles of 1-3 digits
    or none, digits up to 30 (first-sequence digits past index 0 are >= 1)."""
    m = draw(st.integers(1, 4))
    head_len = draw(st.integers(0, 3))
    cycle_len = draw(st.sampled_from([None, 1, 2, 3]))
    parts = []
    for k in range(m):
        head = [draw(st.integers(0 if k or i == 0 else 1, 30)) for i in range(head_len)]
        text = " ".join(map(str, head))
        if cycle_len is not None:
            cycle = [draw(st.integers(0 if k else 1, 30)) for _ in range(cycle_len)]
            text += " (" + " ".join(map(str, cycle)) + ")"
        parts.append(text)
    return "/".join(parts)


@settings(max_examples=200, deadline=None)
@given(inline_specs(), st.integers(0, 60), st.sampled_from([0, 1, 10, 40]),
       st.sampled_from(["text", "json"]))
def test_convergents_match_the_fraction_oracle(text, upto, places, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["convergents", "--inline", text, "--upto", str(upto),
                     "--places", str(places), "--format", fmt])
    assert (code, out.getvalue()) == oracle_convergents(text, upto, places, fmt)


def test_convergents_m1_fibonacci(capsys):
    code, out, _ = run_cli(capsys, ["convergents", "--inline", "(1)", "--upto", "6"])
    assert code == 0
    assert out.splitlines()[-1].startswith("6: 21/13")


def test_convergents_moore_forty(capsys):
    code, out, _ = run_cli(capsys, ["convergents", "--inline", "(1)/(0)", "--upto", "40"])
    assert code == 0
    last = out.splitlines()[-1]
    assert last.split(" ~ ")[1].startswith("1.46557123")


def test_convergents_truncates_at_finite_spec(capsys):
    code, out, _ = run_cli(capsys, ["convergents", "--inline", "1 1 3", "--upto", "9"])
    assert code == 0
    assert out.splitlines()[-1].startswith("2: 7/4")


def test_closed_form_text(capsys):
    code, out, _ = run_cli(capsys, ["closed-form", "--a", "1", "--b", "0"])
    assert code == 0
    assert out == "x^3 - x^2 - 1\n"
    code, out, _ = run_cli(capsys, ["closed-form", "--a", "1", "--b", "1", "--which", "beta"])
    assert out == "x^3 - 2*x^2 + 2*x - 2\n"
    code, out, _ = run_cli(capsys, ["closed-form", "--all-ones", "--order", "3"])
    assert out == "x^4 - x^3 - x^2 - x - 1\n"


def test_closed_form_json(capsys):
    code, out, _ = run_cli(
        capsys, ["closed-form", "--a", "2", "--b", "3", "--format", "json"]
    )
    assert code == 0
    payload = no_floats(out)
    assert payload["coefficients"] == ["-1", "-3", "-2", "1"]


def test_kbonacci(capsys):
    code, out, _ = run_cli(capsys, ["kbonacci", "--k", "3", "--n", "10"])
    assert code == 0
    assert out == "0 0 1 1 2 4 7 13 24 44\n"


def test_kbonacci_json(capsys):
    code, out, _ = run_cli(capsys, ["kbonacci", "--k", "3", "--n", "6", "--format", "json"])
    assert code == 0
    assert no_floats(out) == {"k": 3, "n": 6, "terms": ["0", "0", "1", "1", "2", "4"]}


def test_period_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["period", "alg:poly=-2,0,1;elem=0,1;lo=1;hi=2", "--depth", "10"],
    )
    assert code == 0
    assert "status: proven" in out
    assert "preperiod: 1" in out
    assert "period: 1" in out


def test_period_guarded_is_apparent(capsys):
    code, out, _ = run_cli(
        capsys,
        ["period", "dec:1.41421356237309,guard=2", "--depth", "6", "--format", "json"],
    )
    assert code == 0
    payload = no_floats(out)
    assert payload["status"] == "apparent"
    assert payload["period"] == 1


def test_cubic_hunt_lists_tribonacci(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "cubic-hunt",
            "--value",
            "dec:1.839286755214161,guard=3",
            "--height",
            "3",
            "--tol",
            "1e-9",
        ],
    )
    assert code == 0
    assert out.splitlines()[0].startswith("1,-1,-1,-1")


TRIB_RAT = "rat:1839286755214161/1000000000000000"
TRIB_RESIDUAL = "725105529484719565970821544719/1000000000000000000000000000000000000000000000"


def test_cubic_hunt_lists_rational_tribonacci(capsys):
    code, out, _ = run_cli(
        capsys, ["cubic-hunt", "--value", TRIB_RAT, "--height", "3", "--tol", "1e-9"]
    )
    assert code == 0
    assert out == f"1,-1,-1,-1  residual={TRIB_RESIDUAL} ~ 0.0000000000\n"


def test_cubic_hunt_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["cubic-hunt", "--value", TRIB_RAT, "--height", "3", "--format", "json", "--places", "4"],
    )
    assert code == 0
    assert no_floats(out) == {
        "height": 3,
        "tol": "1/1000000000",
        "decimal_places": 4,
        "candidates": [
            {
                "coefficients": ["1", "-1", "-1", "-1"],
                "residual": TRIB_RESIDUAL,
                "residual_decimal": "0.0000",
            }
        ],
    }


def test_cubic_hunt_no_candidates(capsys):
    code, out, _ = run_cli(capsys, ["cubic-hunt", "--value", "rat:3/2", "--height", "1"])
    assert code == 0
    assert out == "no candidates\n"


# -- exit code taxonomy ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["closed-form", "--a", "0", "--b", "1"], "a must be >= 1, got 0"),
        (["kbonacci", "--k", "1", "--n", "5"], "k must be >= 2"),
        (["cubic-hunt", "--value", "rat:3/2", "--height", "0"], "height must be between 1 and 50"),
    ],
)
def test_exit_2_on_rejected_parameter(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["cubic-hunt", "--value", "rat:3/2", "--height", "2", "--tol", "1e-9"],
        ["cubic-hunt", "--value", "rat:3/2", "--height", "3", "--tol", "1"],
        ["convergents", "--inline", "(1)/(1)", "--upto", "5"],
    ],
)
def test_exit_2_on_negative_places(capsys, argv, fmt):
    code, out, err = run_cli(capsys, [*argv, "--places", "-3", "--format", fmt])
    assert (code, out, err) == (2, "", "error: --places must be >= 0\n")


ALG_SQRT2 = "alg:poly=-2,0,1;elem=0,1;lo={};hi={}"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["expand", "rat:1/2", "--depth", "0"], 2, "--depth must be >= 1"),
        (["period", "rat:1/2", "--depth", "0"], 2, "--depth must be >= 1"),
        (["convergents", "--digits", "/nonexistent", "--upto", "2"], 2,
         "cannot read digit file: "),
        (["convergents", "--inline", "(1)/(1)", "--upto", "-1"], 2, "--upto must be >= 0"),
        (["tree", "--inline", "(1)/(1)", "--depth", "7"], 2, "--depth must be between 0 and 6"),
        (["closed-form", "--all-ones"], 2, "--all-ones needs --order M with M >= 1"),
        (["closed-form", "--a", "1"], 2, "closed-form needs --a and --b (or --all-ones --order M)"),
        (["cubic-hunt", "--value", ALG_SQRT2.format(1, 2)], 2,
         "cubic-hunt takes a dec: or rat: value"),
        (["expand", "alg:poly=-2,0,1;elem=0,1;lo=1;lo=2"], 2, "duplicate alg field 'lo'"),
        (["expand", ALG_SQRT2.format(2, 2)], 4, "empty interval [2, 2]"),
        (["convergents", "--inline", "1(2/3"], 2, "malformed cycle in '1(2'"),
        (["expand", "dec:1.5,guard=x"], 2, "guard must be an integer, got 'x'"),
        (["expand", "alg:poly=-2,0,1;elem=0,1;lo=1;hi=2;guard=3;deg=7", "--depth", "3"], 2,
         "unknown alg field 'guard'"),
        (["period", "alg:poly=-2,0,1;deg=2;elem=0,1;lo=1;hi=2"], 2, "unknown alg field 'deg'"),
        (["cubic-hunt", "--value", "dec:1.839286755214161\n,guard=3", "--height", "3", "--tol",
          "1e-9"], 2, "not a decimal literal: '1.839286755214161\\n'"),
        # One ASCII rational grammar on every Python version.
        (["expand", "rat:1_000/3", "--depth", "2"], 2, "not a rational: '1_000/3'"),
        (["expand", "rat:3 / 2", "--depth", "2"], 2, "not a rational: '3 / 2'"),
        (["expand", "rat:\uff11/3"], 2, "not a rational: '\uff11/3'"),
        (["expand", "alg:poly=-2,0,1;elem=1_0,1;lo=1;hi=2"], 2, "not a rational: '1_0'"),
        (["cubic-hunt", "--value", "rat:3/2", "--tol", "1_0"], 2, "not a rational: '1_0'"),
    ],
)
def test_refusals_exit_with_their_code(capsys, argv, code, message):
    got, out, err = run_cli(capsys, argv)
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {message}") and err.endswith("\n") and err.count("\n") == 1


def test_verbose_json_carries_meta(capsys):
    code, out, _ = run_cli(capsys, ["expand", "rat:7/4", "--verbose", "--format", "json"])
    assert code == 0
    assert no_floats(out)["meta"] == {"source": "rat:7/4", "depth": "16"}


def test_all_ones_json_carries_order(capsys):
    argv = ["closed-form", "--all-ones", "--order", "3", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert no_floats(out)["order"] == 3


def test_decimal_period_is_apparent(capsys):
    code, out, _ = run_cli(
        capsys, ["expand", "dec:1.41421356237309504880,guard=2", "--depth", "12", "--period"]
    )
    assert code == 0
    assert out.endswith("\n# period: apparent\n")


def test_exit_2_on_spec_without_digits(capsys):
    code, out, err = run_cli(capsys, ["convergents", "--inline", "/", "--upto", "0"])
    assert (code, out) == (2, "")
    assert err == "error: spec holds 0 digits per sequence, need 1 and no cycle is present\n"


def test_exit_4_on_field_value_exactly_integral(capsys):
    # floor(theta) = 1 exactly for the root 1 of x^2 - 1; the next step
    # then inverts theta - 1 = 0 and finds the factor.
    code, out, err = run_cli(capsys, ["expand", "alg:poly=-1,0,1;elem=0,1;lo=1/2;hi=3/2"])
    assert code == 4
    assert out == ""
    assert "has factor x - 1" in err


def test_exit_2_on_parse_error(capsys):
    code, _, err = run_cli(capsys, ["expand", "rat:x/y"])
    assert code == 2
    assert "error:" in err


def test_exit_2_on_malformed_digit_file(capsys, tmp_path):
    bad = tmp_path / "bad.digits"
    bad.write_text("bogus\n")
    code, _, err = run_cli(capsys, ["convergents", "--digits", str(bad)])
    assert code == 2


def test_exit_2_on_a_repeated_key(capsys, tmp_path):
    twice = tmp_path / "twice.digits"
    twice.write_text("bcf-digits v1\nm: 1\nhead[1]: 1 2\nhead[1]: 3\n")
    for argv in (["convergents", "--digits", str(twice)],
                 ["expand", "dec:1.5,guard=1,guard=2"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "duplicate" in err


def test_exit_3_on_ambiguous_floor(capsys):
    code, _, err = run_cli(capsys, ["expand", "dec:1.8392,guard=1", "--depth", "12"])
    assert code == 3
    assert "digit" in err


def test_exit_3_on_moore_pair_at_order_2(capsys):
    code, _, err = run_cli(
        capsys,
        ["expand", "dec:1.4655712318,guard=2", "dec:0.6823278038,guard=2", "--depth", "200"],
    )
    assert code == 3
    assert "digit" in err


def test_refusal_names_its_step_and_component(capsys):
    code, _, err = run_cli(
        capsys, ["expand", "dec:1.839286755214161", "dec:0.5436890126920764", "--depth", "40"]
    )
    assert code == 3
    assert err.startswith("error: component 1 at step 34: value 1.87141277187 is within")


def test_exit_4_on_mixed_fields(capsys):
    code, _, err = run_cli(
        capsys,
        ["expand", TRIB_ALPHA, "alg:poly=-2,0,1;elem=0,1;lo=1;hi=2"],
    )
    assert code == 4


def test_one_root_named_by_two_intervals_is_one_field(capsys):
    sqrt2 = "alg:poly=-2,0,1;elem=0,1;lo=1;hi=2"
    code, out, err = run_cli(capsys, ["expand", sqrt2, "alg:poly=-2,0,1;elem=1,1;lo=1;hi=3"])
    assert (code, err) == (0, "")
    assert (0, out, "") == run_cli(capsys, ["expand", sqrt2, "alg:poly=-2,0,1;elem=1,1;lo=1;hi=2"])
    code, out, err = run_cli(capsys, ["expand", sqrt2, "alg:poly=-2,0,1;elem=1,1;lo=-2;hi=-1"])
    assert (code, out) == (4, "")
    assert "share one backend" in err


@pytest.mark.parametrize("command", ["expand", "period"])
def test_specs_of_one_field_build_it_once(capsys, monkeypatch, command):
    # The three quartic specs name one field, the last spec another
    # interval of the same root: two fields, whatever the order of specs.
    import bcf.formats

    built = []

    class Counted(bcf.formats.NumberField):
        def __init__(self, *args):
            built.append(args[1:])
            super().__init__(*args)

    argv = [command, *QUARTIC, "--depth", "12"]
    expected = run_cli(capsys, argv)
    monkeypatch.setattr(bcf.formats, "NumberField", Counted)
    assert run_cli(capsys, argv) == expected
    assert len(built) == 1
    other = QUARTIC[0].replace("lo=1", "lo=0")
    run_cli(capsys, [command, QUARTIC[0], other, QUARTIC[0], other, "--depth", "5"])
    assert built[1:] == [(1, 2), (0, 2)]


def test_exit_4_on_non_monic_modulus(capsys):
    code, _, err = run_cli(capsys, ["expand", "alg:poly=-2,0,2;elem=0,1;lo=1;hi=2"])
    assert code == 4


def test_exit_4_on_interval_holding_several_roots(capsys):
    code, out, err = run_cli(
        capsys,
        ["expand", "alg:poly=-1,9,-6,1;elem=0,1;lo=0;hi=5", "--depth", "6"],
    )
    assert code == 4
    assert out == ""
    assert "3 distinct real roots" in err


def test_exit_4_on_repeated_factor(capsys):
    code, out, err = run_cli(
        capsys,
        ["expand", "alg:poly=-1,3,-3,1;elem=0,1;lo=0;hi=2", "--depth", "6"],
    )
    assert code == 4
    assert out == ""
    assert "repeated factor x^2 - 2*x + 1" in err


def test_places_refused_where_unread():
    with pytest.raises(SystemExit) as exc:
        main(["period", "rat:7/4", "--places", "3"])
    assert exc.value.code == 2


def test_exit_5_on_tree_wrong_order(capsys):
    code, _, err = run_cli(capsys, ["tree", "--inline", "(1)", "--depth", "2"])
    assert code == 5


def test_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys,
            ["expand", *QUARTIC, "--depth", "12", "--period", "--format", "json"],
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verbose_meta_round_trips(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["expand", "rat:7/4", "--depth", "5", "--verbose"]
    )
    assert code == 0
    assert "meta: source=rat:7/4" in out
    code, out2, _ = run_cli(
        capsys,
        ["convergents", "--digits", "-", "--upto", "2"],
        stdin_text=out,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out2.splitlines()[-1].startswith("2: 7/4")


# 10**4400 + 1 and neighbours, spelled out: past Python's default int<->str
# limit of 4300 digits, so the test itself converts none of them.
HUGE = "1" + "0" * 4399 + "1"


def test_exact_integers_past_the_int_str_limit(capsys):
    code, out, err = run_cli(capsys, ["convergents", "--inline", f"1 {HUGE}", "--upto", "1"])
    assert (code, err) == (0, "")
    assert out == f"0: 1 ~ 1.0000000000\n1: {HUGE[:-1]}2/{HUGE} ~ 1.0000000000\n"
    code, out, err = run_cli(capsys, ["expand", f"rat:{HUGE}/3"])
    assert (code, err) == (0, "")
    assert out == f"bcf-digits v1\nm: 1\nhead[1]: {'3' * 4400} 1 2\nterminated: 2\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str limit")
@pytest.mark.parametrize(
    "argv",
    [
        ["convergents", "--inline", f"1 {HUGE}", "--upto", "1"],
        ["expand", "rat:x/y"],
        ["kbonacci", "--k", "2"],
    ],
)
def test_main_restores_the_int_str_limit(capsys, argv):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with contextlib.suppress(SystemExit):  # argparse's usage error
            main(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
    capsys.readouterr()
