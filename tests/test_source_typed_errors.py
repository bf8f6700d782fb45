"""The package raises no plain ValueError: every rejection it makes is typed.

A rejection a caller can reach is a ``GrossoneError`` (``InvalidArgument``
for a value outside an operation's domain), so callers can tell it from a
programming error; ``InvalidArgument`` is itself a ``ValueError``.
"""

import ast
from pathlib import Path
from sys import get_int_max_str_digits, int_info

import pytest

from grossone.errors import InvalidArgument, ParseError
from grossone.gnum import GROSSONE, ZERO, GrossNumber
from grossone.measure import canonical_measurement
from grossone.numeral_system import parse_system
from grossone.sets import IntervalSet, interval, map_affine, parse_set_expression

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"


def plain_value_error_raises(tree: ast.AST) -> list[int]:
    """Lines of ``raise ValueError`` and ``raise ValueError(...)``, plain or module-qualified."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (isinstance(raised, ast.Name) and raised.id == "ValueError") or (
                isinstance(raised, ast.Attribute) and raised.attr == "ValueError"
            ):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_source_raises_no_plain_value_error(path):
    assert plain_value_error_raises(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_the_raise_guard_sees_every_form():
    code = (
        "raise ValueError('bad')\n"
        "raise ValueError\n"
        "raise builtins.ValueError('bad') from None\n"
        "raise InvalidArgument('bad')\n"
        "try:\n"
        "    pass\n"
        "except ValueError:\n"
        "    raise\n"
        "x = ValueError('not raised')\n"
    )
    assert plain_value_error_raises(ast.parse(code)) == [1, 2, 3]
    assert len(sorted(SOURCE.glob("*.py"))) >= 9


def _measured_one_to_three():
    return canonical_measurement(parse_set_expression("[1..3]"))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _measured_one_to_three().apply(9), "9 is outside [1..3]"),
        (lambda: _measured_one_to_three().invert(9), "9 is not in the measured set"),
        (lambda: map_affine(parse_set_expression("[1..3]"), 2, 0), "sign must be +1 or -1"),
        (
            lambda: IntervalSet((interval(5, 6), interval(1, 2))),
            "parts [5..6] and [1..2] are unsorted, overlapping or adjacent",
        ),
        (lambda: GrossNumber((1,)), "malformed term 1"),
        (lambda: GrossNumber(((0, True),)), "term entries must be ints or Fractions"),
        (lambda: GrossNumber(((0, 0),)), "zero coefficient in canonical form"),
        (lambda: GrossNumber(((0, 1), (1, 1))), "exponents must be strictly descending"),
        (lambda: ZERO.leading(), "zero has no leading term"),
        (lambda: GROSSONE**-1, "only nonnegative integer powers are defined"),
    ],
)
def test_library_rejections_are_invalid_argument(call, message):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert str(info.value) == message


def test_an_oversized_finite_system_is_still_a_parse_error_at_position_0():
    limit = get_int_max_str_digits() or int_info.default_max_str_digits
    with pytest.raises(ParseError) as info:
        parse_system(f"finite:{limit + 1}:10")
    message = f"bad system descriptor (base**digits has more than {limit} decimal digits)"
    assert (info.value.args[0], info.value.position) == (message, 0)
