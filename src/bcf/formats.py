"""Text formats: value specs, digit files, inline digit notation, decimals.

Value specs::

    rat:<num>/<den>                               exact rational
    dec:<decimal-literal>[,guard=<g>]             guarded decimal literal
    alg:poly=<c0,...,cd>;elem=<e0,...,e_(d-1)>;lo=<q>;hi=<q>
                                                  field element (ascending
                                                  coefficients, rational
                                                  coordinates, isolating
                                                  interval); exactly these
                                                  four fields, once each

Digit files are line-oriented with a versioned header; loading a canonical
file and saving it again is byte-identical::

    bcf-digits v1
    m: 3
    head[1]: 1
    ...
    cycle[1]: 1 1 2
    ...
    terminated: 2        (only for terminated expansions)
    meta: key=value      (optional, preserved in order)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .arith import GuardedDecimal, IntPolynomial, NumberField, RealValue
from .arith.numberfield import FieldElement
from .errors import ParseError
from .evaluation import DigitSpec

DIGIT_FILE_HEADER = "bcf-digits v1"
# What Fraction(str) reads on Python 3.10, in ASCII digits: later versions
# also take underscores (3.11) and spaces around '/' (3.12).
_RATIONAL_RE = re.compile(r"[+-]?(?=\.?[0-9])[0-9]*(?:/[0-9]+|(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)")


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p/q', integer, decimal, or exponent notation in
    ASCII digits, with optional outer whitespace."""
    body = text.strip()
    if not _RATIONAL_RE.fullmatch(body):
        raise ParseError(f"not a rational: {text!r}")
    try:
        return Fraction(body)
    except ZeroDivisionError as exc:
        raise ParseError(f"not a rational: {text!r} ({exc})") from None


def decimal_string(x: Fraction, places: int) -> str:
    """Exact decimal rendering truncated toward zero at ``places`` digits."""
    if places < 0:
        raise ValueError("places must be >= 0")
    sign = "-" if x < 0 else ""
    return sign + decimal_ratio(abs(x.numerator), x.denominator, places, 10**places)


def decimal_ratio(num: int, den: int, places: int, scale: int) -> str:
    """num/den (num >= 0, den >= 1) truncated at ``places`` digits; scale = 10**places."""
    if not places:
        return str(num // den)
    intpart, fracpart = divmod(num * scale // den, scale)
    return f"{intpart}.{fracpart:0{places}d}"


def format_ratio(num: int, den: int) -> str:
    """num/den (den >= 1) in lowest terms; the bare integer when den divides num."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


# -- value specs ---------------------------------------------------------------


def parse_value_spec(text: str, number_fields: dict | None = None) -> RealValue:
    """The value a spec names.  ``number_fields`` holds the fields of earlier
    ``alg:`` specs by (poly, lo, hi), so the specs of one command share one
    field (and its bracket) instead of building one each."""
    kind, sep, body = text.partition(":")
    if not sep:
        raise ParseError(f"value spec needs a kind prefix (rat:, dec:, alg:): {text!r}")
    if kind == "rat":
        value = parse_rational(body)
        return value
    if kind == "dec":
        return _parse_dec(body)
    if kind == "alg":
        return _parse_alg(body, {} if number_fields is None else number_fields)
    raise ParseError(f"unknown value kind {kind!r} in {text!r}")


def _parse_dec(body: str) -> GuardedDecimal:
    literal, _, opts = body.partition(",")
    guard = 1
    if opts:
        for opt in opts.split(","):
            key, sep, val = opt.partition("=")
            if key != "guard" or not sep:
                raise ParseError(f"unknown dec option {opt!r}")
            try:
                guard = int(val)
            except ValueError:
                raise ParseError(f"guard must be an integer, got {val!r}") from None
        if "," in opts:  # every option is a guard, so a second one repeats it
            raise ParseError("duplicate dec option 'guard'")
    try:
        return GuardedDecimal.from_literal(literal, guard_digits=guard)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_alg(body: str, number_fields: dict) -> FieldElement:
    fields: dict[str, str] = {}
    for part in body.split(";"):
        key, sep, val = part.partition("=")
        if not sep:
            raise ParseError(f"malformed alg field {part!r}")
        if key not in ("poly", "elem", "lo", "hi"):
            raise ParseError(f"unknown alg field {key!r}")
        if key in fields:
            raise ParseError(f"duplicate alg field {key!r}")
        fields[key] = val
    missing = {"poly", "elem", "lo", "hi"} - fields.keys()
    if missing:
        raise ParseError(f"alg spec missing fields: {', '.join(sorted(missing))}")
    try:
        coeffs = [int(c) for c in fields["poly"].split(",")]
    except ValueError:
        raise ParseError(f"poly coefficients must be integers: {fields['poly']!r}") from None
    coords = [parse_rational(c) for c in fields["elem"].split(",")]
    lo = parse_rational(fields["lo"])
    hi = parse_rational(fields["hi"])
    key = (tuple(coeffs), lo, hi)
    if key not in number_fields:
        number_fields[key] = NumberField(IntPolynomial.from_coeffs(coeffs), lo, hi)
    field_obj = number_fields[key]
    if len(coords) > field_obj.degree:
        raise ParseError(
            f"elem takes at most {field_obj.degree} coordinates for a degree-"
            f"{field_obj.degree} modulus, got {len(coords)}"
        )
    return field_obj.element(coords)  # short vectors pad with zeros


def format_value_spec(value: RealValue) -> str:
    """Canonical spec text; parse-then-print is a fixed point."""
    if isinstance(value, Fraction):
        return f"rat:{value.numerator}/{value.denominator}"
    if isinstance(value, GuardedDecimal):
        if value.mantissa is None:
            raise ValueError("derived guarded decimals have no literal form")
        # value = mantissa / 10**scale, so this rendering is exact
        return f"dec:{decimal_string(value.value, value.scale)},guard={value.guard_digits}"
    if isinstance(value, FieldElement):
        poly = ",".join(str(c) for c in value.field.modulus.coeffs)
        elem = ",".join(map(str, value.coords))
        lo, hi = value.field.root_interval
        return f"alg:poly={poly};elem={elem};lo={lo};hi={hi}"
    raise TypeError(f"not a real value: {value!r}")


# -- digit files -----------------------------------------------------------------


@dataclass
class DigitFile:
    spec: DigitSpec
    terminated_at: int | None = None
    meta: dict[str, str] = field(default_factory=dict)


def dumps_digit_file(doc: DigitFile) -> str:
    spec = doc.spec
    lines = [DIGIT_FILE_HEADER, f"m: {spec.order}"]
    for k in range(spec.order):
        lines.append(f"head[{k + 1}]:" + _digit_tail(spec.head[k]))
    if spec.cycle is not None:
        for k in range(spec.order):
            lines.append(f"cycle[{k + 1}]:" + _digit_tail(spec.cycle[k]))
    if doc.terminated_at is not None:
        lines.append(f"terminated: {doc.terminated_at}")
    for key, val in doc.meta.items():
        lines.append(f"meta: {key}={val}")
    return "\n".join(lines) + "\n"


def _digit_tail(digits) -> str:
    return (" " + " ".join(str(d) for d in digits)) if digits else ""


def loads_digit_file(text: str) -> DigitFile:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0].strip() != DIGIT_FILE_HEADER:
        raise ParseError(f"digit file must start with {DIGIT_FILE_HEADER!r}")
    m: int | None = None
    head: dict[int, tuple[int, ...]] = {}
    cycle: dict[int, tuple[int, ...]] = {}
    terminated_at: int | None = None
    meta: dict[str, str] = {}
    for ln in lines[1:]:
        key, sep, rest = ln.partition(":")
        if not sep:
            raise ParseError(f"malformed digit-file line: {ln!r}")
        key = key.strip()
        rest = rest.strip()
        if key == "m":
            _once(m is not None, key)
            m = _parse_int(rest, "m")
        elif key.startswith(("head[", "cycle[")) and key.endswith("]"):
            table = head if key.startswith("head[") else cycle
            k = _parse_int(key[key.index("[") + 1 : -1], "sequence index")
            _once(k in table, key)
            table[k] = _parse_digit_row(rest)
        elif key == "terminated":
            _once(terminated_at is not None, key)
            terminated_at = _parse_int(rest, "terminated")
        elif key == "meta":
            mk, msep, mv = rest.partition("=")
            if not msep:
                raise ParseError(f"meta line needs key=value: {ln!r}")
            _once(mk in meta, f"meta {mk}")
            meta[mk] = mv
        else:
            raise ParseError(f"unknown digit-file key {key!r}")
    if m is None:
        raise ParseError("digit file missing 'm:' line")
    rows = range(1, m + 1)  # ranges compare unbuilt, so a huge m allocates nothing
    if rows != range(1, len(head) + 1) or sorted(head) != list(rows):
        raise ParseError(f"expected head[1..{m}] lines, got {sorted(head)}")
    if cycle and (rows != range(1, len(cycle) + 1) or sorted(cycle) != list(rows)):
        raise ParseError(f"expected cycle[1..{m}] lines, got {sorted(cycle)}")
    spec = _digit_spec(
        m, tuple(head[k] for k in rows), tuple(cycle[k] for k in rows) if cycle else None
    )
    return DigitFile(spec=spec, terminated_at=terminated_at, meta=meta)


def _digit_spec(order: int, head, cycle) -> DigitSpec:
    try:
        return DigitSpec(order=order, head=head, cycle=cycle)
    except ValueError as exc:
        raise ParseError(f"invalid digit data: {exc}") from None


def _once(seen: bool, key: str) -> None:
    if seen:  # a second line for one key would make the file mean two things
        raise ParseError(f"duplicate digit-file key {key!r}")


def _parse_int(text: str, label: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{label} must be an integer, got {text!r}") from None


def _parse_digit_row(rest: str) -> tuple[int, ...]:
    if not rest:
        return ()
    return tuple(_parse_int(tok, "digit") for tok in rest.split())


# -- inline digit notation --------------------------------------------------------


def parse_inline_digits(text: str) -> DigitSpec:
    """Sequences separated by '/', each 'h0 h1 ... (c0 c1 ...)'.

    Example: '1 (1 1 2)/1 (0 0 1)/1 (0 0 1)'.
    """
    seq_texts = text.split("/")
    heads: list[tuple[int, ...]] = []
    cycles: list[tuple[int, ...] | None] = []
    for part in seq_texts:
        part = part.strip()
        cyc: tuple[int, ...] | None = None
        if "(" in part:
            if not part.endswith(")") or part.count("(") != 1:
                raise ParseError(f"malformed cycle in {part!r}")
            part, _, cyc_text = part.partition("(")
            cyc = _parse_digit_row(cyc_text[:-1].strip())
            if not cyc:
                raise ParseError("cycle may not be empty")
        heads.append(_parse_digit_row(part.strip()))
        cycles.append(cyc)
    has_cycle = [c is not None for c in cycles]
    if any(has_cycle) and not all(has_cycle):
        raise ParseError("either every sequence has a cycle or none does")
    return _digit_spec(len(heads), tuple(heads), tuple(cycles) if all(has_cycle) else None)
