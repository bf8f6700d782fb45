"""Command-line front end.

One verb per module: ``eval`` (numerals), ``card`` and ``cmp`` (sets and
comparison), ``measure`` (measurements, optionally relative to a numeral
system), ``system`` (numeral-system queries), ``define`` (inverse-defined
numbers), ``demo`` (the half-plane construction).

Exit codes: 0 success, 1 domain error (inexpressible value, inexact
division, ...), 2 syntax error in a numeral, set expression, descriptor
or the command line itself.  With ``--format json`` the output is a
single JSON object ``{"result": ...}`` or ``{"error": ...}`` matching the
shipped schema; ``--ascii`` renders ① as G1 so the tool survives
non-Unicode terminals.

Handlers return plain strings; :func:`run_command` alone applies
``--format`` and ``--ascii``.  ``--ascii`` rewrites results only: error
messages, and the ``value`` of a NotExpressible error, keep ① as written;
that ``value`` is left out when it is too long to write out.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

# Each verb imports the other submodules it needs (sets, measure, ...) in its
# handler, so a call loads only those; annotations naming them stay strings.
from .errors import GrossoneError, InvalidArgument, NotExpressible, ParseError
from .gnum import GROSS_ASCII, GROSS_SYMBOL, Sign, classify, cmp, format_numeral, parse_numeral

__all__ = ["main", "console_main", "run_command"]


def _sign_word(sign: Sign) -> str:
    return sign.name.lower()


def _word(value) -> str:
    """A result entry in text mode: booleans print as true/false."""
    return str(value).lower() if isinstance(value, bool) else value


# ----------------------------------------------------------------------- verbs
#
# Each handler takes the parsed arguments and returns (result_dict,
# text_lines) of plain strings: the dict feeds the JSON envelope, the lines
# feed text mode.  run_command alone applies --format and --ascii.


def _cmd_eval(args):
    value = parse_numeral(args.numeral)
    kind = classify(value)
    result = {
        "value": str(value),
        "class": {
            "integer": kind.is_integer,
            "finite": kind.is_finite,
            "infinite": kind.is_infinite,
            "infinitesimal": kind.is_infinitesimal,
        },
    }
    return result, [result["value"]]


def _cmd_card(args):
    from . import sets

    s = sets.parse_set_expression(args.set)
    result = {"set": str(s), "cardinality": str(sets.cardinality(s))}
    return result, [result["cardinality"]]


def _cmd_cmp(args):
    sign = cmp(parse_numeral(args.left), parse_numeral(args.right))
    return {"sign": _sign_word(sign)}, [_sign_word(sign)]


def _cmd_measure(args):
    from . import measure, sets

    s = sets.parse_set_expression(args.set)
    if args.system is None:
        m = measure.canonical_measurement(s)
    else:
        from . import numeral_system

        m = numeral_system.measure_in(numeral_system.parse_system(args.system), s)
    text = measure.to_text(m).rstrip("\n").split("\n")
    return {"measurement": measure.to_jsonable(m)}, text


def _cmd_system(args):
    from . import numeral_system

    sys_ = numeral_system.parse_system(args.descriptor)
    if args.query != "expressible":
        # max-finite and min-infinite name the library function and the key.
        key = args.query.replace("-", "_")
        value = str(getattr(numeral_system, key)(sys_))
        return {"system": sys_.describe(), key: value}, [value]
    if args.value is None:
        raise ParseError("expressible needs a numeral argument", args.query, 0)
    probe = parse_numeral(args.value)
    ok = numeral_system.expressible(sys_, probe)
    return {"system": sys_.describe(), "numeral": str(probe), "expressible": ok}, [_word(ok)]


def _cmd_define(args):
    from . import derived

    d = derived.parse_defined(args.expression)
    result: dict = {"defined": derived.format_defined(d)}
    lines = [result["defined"]]
    if classify(d.kappa).is_finite:
        result["resolved"] = str(derived.resolve_finite(d))
        lines = [result["resolved"]]
    if args.cmp is not None:
        outcome = derived.cmp_defined(d, parse_numeral(args.cmp))
        word = "incomparable" if outcome is derived.INCOMPARABLE else _sign_word(outcome)
        result["cmp"] = word
        lines.append(word)
    return result, lines


def _cmd_demo(args):
    from . import geometry

    a = _finite_rational(args.a, "--a")
    d = _finite_rational(args.d, "--d")
    report = geometry.halfplane_demo(a, d, parse_numeral(args.b), parse_numeral(args.c))
    left, right = report.uncovered_left, report.uncovered_right
    result = {
        "A": str(report.strip_a),
        "C": str(report.strip_c),
        "B": str(report.strip_b),
        "subset": report.subset,
        "uncovered": str(report.uncovered),
        "uncovered_left": None if left is None else str(left),
        "uncovered_right": None if right is None else str(right),
        "classical_subset": report.classical_subset,
    }
    lines = [
        f"{key.replace('_', '-')} {_word(value)}" for key, value in result.items() if value is not None
    ]
    return result, lines


def _finite_rational(text: str, flag: str) -> Fraction:
    value = parse_numeral(text)
    try:
        return value.as_fraction()
    except ValueError:
        raise ParseError(f"{flag} must be a finite rational", text, 0) from None


# ------------------------------------------------------------------- plumbing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output rendering (default text)",
    )
    common.add_argument(
        "--ascii",
        action="store_true",
        help="write the infinite unit as G1 instead of ①",
    )

    parser = argparse.ArgumentParser(
        prog="grossone",
        description="Exact arithmetic and set measurement with the infinite unit ①.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", parents=[common], help="canonicalize and classify a numeral")
    p.add_argument("numeral", help="numeral, e.g. '2①+1' or '2*G1+1'")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("card", parents=[common], help="element count of a set expression")
    p.add_argument("set", help="set expression, e.g. '[1..①]\\{1}'")
    p.set_defaults(handler=_cmd_card)

    p = sub.add_parser("cmp", parents=[common], help="three-way comparison of two numerals")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_cmp)

    p = sub.add_parser("measure", parents=[common], help="explicit measurement of a set")
    p.add_argument("set", help="set expression")
    p.add_argument(
        "--system",
        help="numeral system descriptor; the measurement must be writable in it",
    )
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("system", parents=[common], help="numeral-system queries")
    p.add_argument("descriptor", help="piraha | finite:<digits>:<base> | gross:<t>:<cd>:<ed>")
    p.add_argument("query", choices=("max-finite", "min-infinite", "expressible"))
    p.add_argument("value", nargs="?", help="numeral for the expressible query")
    p.set_defaults(handler=_cmd_system)

    p = sub.add_parser("define", parents=[common], help="numbers defined by inverting g")
    p.add_argument("expression", help="sqrtfloor(k) | logfloor(b, k) | invfloor(pow n, k)")
    p.add_argument("--cmp", help="probe numeral to compare the defined number against")
    p.set_defaults(handler=_cmd_define)

    p = sub.add_parser("demo", parents=[common], help="worked constructions")
    p.add_argument("topic", choices=("halfplane",))
    p.add_argument("--a", required=True, help="right edge of the base strip (finite rational)")
    p.add_argument("--d", required=True, help="axis of the second reflection (finite rational)")
    p.add_argument("--b", default="①", help="left extent as a numeral (default ①)")
    p.add_argument("--c", default="①", help="half-height as a numeral (default ①)")
    p.set_defaults(handler=_cmd_demo)

    return parser


def _error_payload(exc: GrossoneError) -> dict:
    entry = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        entry["position"] = exc.position
    if isinstance(exc, NotExpressible):
        entry["system"] = exc.system_name
        try:
            entry["value"] = format_numeral(exc.value)
        except InvalidArgument:
            pass  # too long to write out, as the message says
    return {"error": entry}


def _json_line(payload: dict) -> str:
    # Imported here: text-mode calls never load json.
    import json

    return json.dumps(payload, ensure_ascii=False, sort_keys=True)


def run_command(args) -> int:
    """Run the verb's handler, write its output and return the exit code.

    The one place ``--format`` and ``--ascii`` apply: ``--ascii`` rewrites
    the whole result text, and errors are written as raised.
    """
    as_json = args.output_format == "json"
    try:
        result, lines = args.handler(args)
    except GrossoneError as exc:
        if as_json:
            sys.stdout.write(_json_line(_error_payload(exc)) + "\n")
        else:
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2 if isinstance(exc, ParseError) else 1
    if as_json:
        text = _json_line({"result": result})
    else:
        text = "\n".join(lines)
    if args.ascii:
        text = text.replace(GROSS_SYMBOL, GROSS_ASCII)
    sys.stdout.write(text + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run_command(args)


def console_main():
    sys.exit(main())
