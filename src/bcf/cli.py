"""Command-line front end.

Exit codes: 0 success, 2 parse/usage error, 3 precision failure,
4 algebra failure, 5 unsupported request; each error family in ``errors``
carries its code as ``exit_code``.  JSON output never carries
binary floating point: exact quantities are decimal strings of integers
or fractions, and decimal renderings always state their precision.  It is
``json.dumps(payload, indent=2)``; the convergents document, which grows
with the request, is written directly and is byte-identical to that.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .arith import GuardedDecimal
from .closedform import allones_poly, alpha_cubic, beta_cubic, cubic_hunt
from .errors import BcfError, ParseError
from .evaluation import DigitSpec, convergent_columns, render_tree
from .expansion import expand
from .formats import (
    DigitFile,
    decimal_ratio,
    decimal_string,
    dumps_digit_file,
    format_fraction,
    format_ratio,
    format_value_spec,
    loads_digit_file,
    parse_inline_digits,
    parse_rational,
    parse_value_spec,
)
from .periodicity import PROVEN, period_report
from .sequences import kbonacci

DEFAULT_PLACES = 10


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bcf",
        description="Exact bifurcating (order-m) continued fractions.",
    )
    parser.add_argument("--version", action="version", version=f"bcf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand value specs into digit sequences")
    p.add_argument("values", nargs="+", help="value specs (rat:, dec:, alg:)")
    p.add_argument("--depth", type=int, default=16, help="maximum digit tuples")
    p.add_argument("--period", action="store_true", help="report (and fold) periodicity")
    _format_option(p)
    p.add_argument("--verbose", action="store_true", help="include source metadata")

    p = sub.add_parser("convergents", help="exact convergents of a digit spec")
    _digit_source(p)
    p.add_argument("--upto", type=int, default=10, help="deepest truncation depth")
    _format_option(p)
    p.add_argument("--places", type=int, default=DEFAULT_PLACES, help="decimal places shown")

    p = sub.add_parser("tree", help="render the order-2 tree")
    _digit_source(p)
    p.add_argument("--depth", type=int, default=2, help="tree depth (max 6)")
    p.add_argument("--which", choices=("alpha", "beta"), default="alpha")

    p = sub.add_parser("closed-form", help="period-1 closed-form polynomials")
    p.add_argument("--a", type=int, help="first-sequence digit")
    p.add_argument("--b", type=int, help="second-sequence digit")
    p.add_argument("--which", choices=("alpha", "beta"), default="alpha")
    p.add_argument("--all-ones", action="store_true", help="order-m all-ones polynomial")
    p.add_argument("--order", type=int, help="expansion order m for --all-ones")
    _format_option(p)

    p = sub.add_parser("kbonacci", help="k-bonacci sequence terms")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _format_option(p)

    p = sub.add_parser("period", help="periodicity report for value specs")
    p.add_argument("values", nargs="+", help="value specs (rat:, dec:, alg:)")
    p.add_argument("--depth", type=int, default=32, help="expansion depth to scan")
    _format_option(p)

    p = sub.add_parser("cubic-hunt", help="brute-force integer cubics near a value")
    p.add_argument("--value", required=True, help="value spec (dec: or rat:)")
    p.add_argument("--height", type=int, default=10, help="coefficient bound")
    p.add_argument("--tol", default="1e-9", help="residual tolerance")
    _format_option(p)
    p.add_argument("--places", type=int, default=DEFAULT_PLACES, help="decimal places shown")

    return parser


def _digit_source(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--digits", help="digit file path, or - for stdin")
    group.add_argument("--inline", help="inline digits, e.g. '1 (1 1 2)/1 (0 0 1)'")


def _format_option(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("text", "json"), default="text")


def main(argv=None) -> int:
    # Exact integers of any size are read and printed, so Python's int<->str digit
    # limit is lifted while a command runs (int() = 0: no limit, before 3.10.7).
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        handler = {
            "expand": cmd_expand,
            "convergents": cmd_convergents,
            "tree": cmd_tree,
            "closed-form": cmd_closed_form,
            "kbonacci": cmd_kbonacci,
            "period": cmd_period,
            "cubic-hunt": cmd_cubic_hunt,
        }[args.command]
        handler(args)
    except BcfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def run():
    sys.exit(main())


# -- commands ---------------------------------------------------------------------


def _expansion(args):
    """The value specs of ``expand``/``period`` (specs of one alg: field share
    it) and their expansion to ``--depth``."""
    number_fields: dict = {}
    values = [parse_value_spec(t, number_fields) for t in args.values]
    if args.depth < 1:
        raise ParseError("--depth must be >= 1")
    return values, expand(values, args.depth)


def cmd_expand(args):
    values, exp = _expansion(args)
    report = period_report(exp) if args.period else None
    spec = DigitSpec.from_expansion(exp, report)
    meta = {}
    if args.verbose:
        meta["source"] = " ".join(format_value_spec(v) for v in values)
        meta["depth"] = str(args.depth)
    if args.format == "json":
        payload = {
            "m": exp.order,
            "digits": [[str(d) for d in seq] for seq in exp.digits],
            "terminated": exp.terminated_at,
        }
        if report is not None:
            payload["period"] = _period_payload(report)
        if spec.cycle is not None:
            payload["head"] = [[str(d) for d in seq] for seq in spec.head]
            payload["cycle"] = [[str(d) for d in seq] for seq in spec.cycle]
        if meta:
            payload["meta"] = meta
        _emit_json(payload)
    else:
        doc = DigitFile(spec=spec, terminated_at=exp.terminated_at, meta=meta)
        sys.stdout.write(dumps_digit_file(doc))
        if report is not None and report.status != PROVEN:
            print(f"# period: {report.status}")


def _period_payload(report):
    return {
        "status": report.status,
        "preperiod": report.preperiod,
        "period": report.period,
        "witness": list(report.witness) if report.witness else None,
    }


def _load_spec(args) -> DigitSpec:
    if args.inline is not None:
        return parse_inline_digits(args.inline)
    if args.digits == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.digits, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read digit file: {exc}") from None
    return loads_digit_file(text).spec


def cmd_convergents(args):
    spec = _load_spec(args)
    if args.upto < 0:
        raise ParseError("--upto must be >= 0")
    if args.places < 0:
        raise ParseError("--places must be >= 0")
    upto = args.upto
    if spec.max_depth is not None:
        upto = min(upto, max(spec.max_depth, 0))
    places, scale = args.places, 10**args.places
    rows = [
        ([format_ratio(x, x0) for x in xs], [decimal_ratio(x, x0, places, scale) for x in xs])
        for x0, *xs in convergent_columns(spec, upto)
    ]
    if args.format == "json":
        print(_convergents_json(spec.order, places, rows))
    else:
        for n, (values, decimals) in enumerate(rows):
            print(f"{n}: " + " | ".join(f"{v} ~ {d}" for v, d in zip(values, decimals)))


def _convergents_json(m: int, places: int, rows) -> str:
    """``json.dumps(payload, indent=2)`` of the convergents document: its shape
    is fixed and its strings (digits, '/' and '.') need no escaping."""
    sep = '",\n        "'
    entries = ",\n".join(
        f'    {{\n      "depth": {n},\n      "values": [\n        "{sep.join(values)}"\n      ],\n'
        f'      "decimals": [\n        "{sep.join(decimals)}"\n      ]\n    }}'
        for n, (values, decimals) in enumerate(rows)
    )
    return f'{{\n  "m": {m},\n  "decimal_places": {places},\n  "convergents": [\n{entries}\n  ]\n}}'


def cmd_tree(args):
    spec = _load_spec(args)
    if not 0 <= args.depth <= 6:
        raise ParseError("--depth must be between 0 and 6")
    sys.stdout.write(render_tree(spec, args.depth, args.which))


def cmd_closed_form(args):
    if args.all_ones:
        if args.order is None or args.order < 1:
            raise ParseError("--all-ones needs --order M with M >= 1")
        poly = allones_poly(args.order)
        kind = "all-ones"
    else:
        if args.a is None or args.b is None:
            raise ParseError("closed-form needs --a and --b (or --all-ones --order M)")
        poly = alpha_cubic(args.a, args.b) if args.which == "alpha" else beta_cubic(args.a, args.b)
        kind = args.which
    if args.format == "json":
        payload = {
            "kind": kind,
            "coefficients": [str(c) for c in poly.coeffs],
            "polynomial": poly.pretty(),
        }
        if kind == "all-ones":
            payload["order"] = args.order
        else:
            payload["a"] = str(args.a)
            payload["b"] = str(args.b)
        _emit_json(payload)
    else:
        print(poly.pretty())


def cmd_kbonacci(args):
    terms = kbonacci(args.k, args.n)
    if args.format == "json":
        _emit_json({"k": args.k, "n": args.n, "terms": [str(t) for t in terms]})
    else:
        print(" ".join(str(t) for t in terms))


def cmd_period(args):
    _, exp = _expansion(args)
    report = period_report(exp)
    if args.format == "json":
        payload = {"m": exp.order, "depth": len(exp)}
        payload.update(_period_payload(report))
        payload["digits"] = [[str(d) for d in seq] for seq in exp.digits]
        _emit_json(payload)
    else:
        print(f"status: {report.status}")
        if report.found:
            print(f"preperiod: {report.preperiod}")
            print(f"period: {report.period}")
            if report.witness:
                print(f"witness: {report.witness[0]} {report.witness[1]}")


def cmd_cubic_hunt(args):
    value = parse_value_spec(args.value)
    tol = parse_rational(args.tol)
    if isinstance(value, GuardedDecimal):
        v, err = value.value, value.radius
    elif isinstance(value, Fraction):
        v, err = value, Fraction(0)
    else:
        raise ParseError("cubic-hunt takes a dec: or rat: value")
    if args.places < 0:
        raise ParseError("--places must be >= 0")
    hits = cubic_hunt(v, args.height, tol, value_error=err)
    if args.format == "json":
        payload = {
            "height": args.height,
            "tol": format_fraction(tol),
            "decimal_places": args.places,
            "candidates": [
                {
                    "coefficients": [str(c) for c in h.coeffs],
                    "residual": format_fraction(h.residual),
                    "residual_decimal": decimal_string(h.residual, args.places),
                }
                for h in hits
            ],
        }
        _emit_json(payload)
    else:
        if not hits:
            print("no candidates")
        for h in hits:
            coeffs = ",".join(str(c) for c in h.coeffs)
            print(f"{coeffs}  residual={format_fraction(h.residual)}"
                  f" ~ {decimal_string(h.residual, args.places)}")


def _emit_json(payload):
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    run()
