"""Arguments that are no member of their domain are refused, not computed with.

A measurement maps gross-integer indices to gross-integer elements, so a
point that is no gross-integer is neither an index nor a member.  Size
parameters of systems, defined functions and sessions are plain ints: a
float or a bool is a TypeError, and a too small int keeps its
InvalidArgument.  The text reader reports each field's error at its
column of the line.  Every entry point that reads text refuses an
argument that is no ``str`` with one TypeError, before any scanning;
``from_json`` still takes bytes, as ``json.loads`` does.
"""

import re
from fractions import Fraction

import pytest

from grossone.derived import DefinitionSession, ExpBase, Pow, parse_defined
from grossone.errors import InvalidArgument, ParseError
from grossone.gnum import GROSSONE, finite, gross_term, parse_numeral, parse_numeral_prefix
from grossone.measure import canonical_measurement, from_json, from_text, to_json
from grossone.numeral_system import BoundedFinite, GrossBudget, expressible, max_finite, parse_system
from grossone.sets import parse_set_expression

HALF = Fraction(1, 2)


@pytest.fixture
def measured():
    return canonical_measurement(parse_set_expression("[1..3]|[10..①]"))


@pytest.mark.parametrize(
    "point",
    [Fraction(3, 2), Fraction(7, 2), GROSSONE / 2 + HALF, finite(5) + gross_term(1, -1)],
    ids=["3/2", "7/2", "half-G1-plus-half", "five-plus-infinitesimal"],
)
def test_apply_refuses_a_point_that_is_no_gross_integer(measured, point):
    message = rf"^{re.escape(str(finite(point)))} is outside \[1\.\.①-6\]$"
    with pytest.raises(InvalidArgument, match=message):
        measured.apply(point)


@pytest.mark.parametrize(
    "point",
    [Fraction(21, 2), Fraction(5, 2), GROSSONE / 2 + HALF, finite(20) - gross_term(1, -1)],
    ids=["21/2", "5/2", "half-G1-plus-half", "twenty-minus-infinitesimal"],
)
def test_invert_refuses_a_point_that_is_no_gross_integer(measured, point):
    message = rf"^{re.escape(str(finite(point)))} is not in the measured set$"
    with pytest.raises(InvalidArgument, match=message):
        measured.invert(point)


def test_gross_integer_points_still_map_both_ways(measured):
    pairs = [(1, 1), (3, 3), (4, 10), (GROSSONE / 2, GROSSONE / 2 + 6), (GROSSONE - 6, GROSSONE)]
    for index, element in pairs:
        assert measured.apply(index) == element
        assert measured.invert(element) == index
    with pytest.raises(InvalidArgument, match="is outside"):
        measured.apply(0)
    with pytest.raises(InvalidArgument, match="is not in the measured set"):
        measured.invert(5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BoundedFinite(Fraction(5, 2)),
        lambda: BoundedFinite(2.5),
        lambda: BoundedFinite(True, 10),
        lambda: BoundedFinite(3, 10.0),
        lambda: GrossBudget(1.0, 1, 1),
        lambda: GrossBudget(1, True, 1),
        lambda: GrossBudget(1, 1, Fraction(1)),
        lambda: Pow(2.0),
        lambda: Pow(True),
        lambda: ExpBase(Fraction(2)),
        lambda: ExpBase(finite(2)),
        lambda: DefinitionSession(1.5),
        lambda: DefinitionSession(max_definitions=True),
    ],
)
def test_a_size_parameter_that_is_no_int_is_a_type_error(make):
    with pytest.raises(TypeError, match="must be an int"):
        make()


def test_no_float_reaches_a_size_test():
    with pytest.raises(TypeError):
        expressible(BoundedFinite(2.5), 5)
    with pytest.raises(TypeError):
        max_finite(BoundedFinite(2.5))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BoundedFinite(0), "digits must be at least 1"),
        (lambda: BoundedFinite(3, 1), "base must be at least 2"),
        (lambda: GrossBudget(0, 1, 1), "max_terms must be at least 1"),
        (lambda: GrossBudget(1, 0, 1), "coeff_digits must be at least 1"),
        (lambda: GrossBudget(1, 1, -4), "exp_digits must be at least 1"),
        (lambda: Pow(1), "exponent must be at least 2"),
        (lambda: ExpBase(-3), "base must be at least 2"),
        (lambda: DefinitionSession(0), "max_definitions must be at least 1"),
    ],
)
def test_a_too_small_int_keeps_its_message(make, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        make()


def test_int_size_parameters_are_kept():
    assert BoundedFinite(3, 2) == BoundedFinite(digits=3, base=2)
    assert max_finite(BoundedFinite(2)) == 99
    assert GrossBudget(1, 1, 1).describe() == "gross:1:1:1"
    assert Pow(2).k == 2 and ExpBase(3).b == 3
    assert DefinitionSession(1).max_definitions == 1


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("mu mu", "mu mu", 3),
        ("piece piece 1", "piece piece 1", 6),
        ("target target", "target target", 7),
        ("  mu 1x", "  mu 1x", 6),
        ("mu 3\n\n  piece 1 3x", "  piece 1 3x", 11),
        ("mu 3\npiece 1 3\ntarget [1..3]x", "target [1..3]x", 13),
        ("mu 3\npiece 1 3\ntarget\t [1..3", "target\t [1..3", 13),
        ("mu 3\n  frob 1", "  frob 1", 2),
        ("mu 3\n piece 1", " piece 1", 1),
    ],
)
def test_text_errors_point_at_their_column_of_the_line(text, line, column):
    with pytest.raises(ParseError) as info:
        from_text(text)
    assert (info.value.text, info.value.position) == (line, column)


def test_text_fields_are_read_one_by_one():
    m = from_text("mu ①-6\npiece 1 3\npiece 4 ①-6 6\ntarget [1..3]\n  target\t[10..①]  \n")
    assert m == canonical_measurement(parse_set_expression("[1..3]|[10..①]"))
    assert m.mu == parse_numeral("①-6")


@pytest.mark.parametrize(
    "read, text, message",
    [
        (parse_numeral, b"12", "text must be a str, got bytes"),
        (parse_numeral, None, "text must be a str, got NoneType"),
        (parse_numeral, 12, "text must be a str, got int"),
        (parse_numeral_prefix, b"12", "text must be a str, got bytes"),
        (parse_set_expression, b"[1..2]", "text must be a str, got bytes"),
        (parse_defined, b"sqrtfloor(4)", "text must be a str, got bytes"),
        (parse_system, None, "descriptor must be a str, got NoneType"),
        (parse_system, b"piraha", "descriptor must be a str, got bytes"),
        (from_text, b"mu 1", "text must be a str, got bytes"),
        (from_text, ["mu 1"], "text must be a str, got list"),
    ],
)
def test_text_entry_points_refuse_what_is_no_str(read, text, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        read(text)


def test_json_still_reads_bytes():
    m = canonical_measurement(parse_set_expression("[1..3]|[10..①]"))
    assert from_json(to_json(m).encode()) == m
