"""A numeral that is a plain integer is read in one match, with the same outcome as the term scanner.

The reference is the same parser with the plain-integer reads (the
whole-field read ``gnum._int_field`` that both measurement readers call,
swapped for one that never reads an int, and the whole-row pattern the
line-based reader matches, swapped for one that never matches) and with
the scanner's sum loop swapped for ``oracles.reference_parse_sum``, the
loop that reads every term and merges the terms it read.  So every text
goes through the reference loop, and ``parse_numeral``,
``parse_numeral_prefix`` and ``parse_set_expression``, which read each
numeral with the sum loop, are compared with a second path too.
Each entry point must give the same value (term for term, int or Fraction
alike) and end, or the same error type, message and position.
"""

import re
from contextlib import contextmanager

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import grossone.gnum as gnum
import grossone.measure as measure
import oracles
from grossone.errors import GrossoneError, InvalidArgument, ParseError
from grossone.gnum import GROSSONE, GrossNumber, parse_numeral, parse_numeral_prefix
from grossone.measure import canonical_measurement, from_text, to_text
from grossone.sets import parse_set_expression

NEVER = re.compile(r"(?!)")
LIMIT = gnum._SHORT_TERM

SHORT_TEXTS = [
    "3 ①", "- 3", "7 / 2", "−5", "[1..3]", "-0", "3 .5", "3 ^2", "3G", "3.", "3..4", "+0", "007",
    "3\n+4", "3 5", "3*", " 42 ", "1+①", "-12①", "4G1", "8/0", "9.0", "", " ", "+", "−0",
    "[1.5..3]", "3..", "[-2..G1]", "[12..①-1]",
]
# Digit runs around the one-match length limit and the int-to-string limit.
LONG_TEXTS = [
    *("9" * n for n in (LIMIT - 1, LIMIT, LIMIT + 1, 4299, 4300, 4301, 5000)),
    *("-" + "8" * n for n in (LIMIT - 1, LIMIT)),
]
ALPHABET = "0123456789+-−*/^.() ①G1\n[]|"


def reference_sum(scanner):
    """The scanner's sum loop as ``oracles.reference_parse_sum`` reads it, from the scanner's position."""
    value, scanner.pos = oracles.reference_parse_sum(scanner.text, scanner.pos)
    return value


@contextmanager
def term_scanner_only():
    """Every numeral read term by term by the reference sum loop, as before the plain-integer match."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measure, "_int_field", lambda text: None)
        patch.setattr(measure, "_INT_ROW", NEVER)
        patch.setattr(gnum._Scanner, "parse_sum", reference_sum)
        yield


def outcome(parse, *args):
    try:
        result = parse(*args)
    except GrossoneError as exc:
        return type(exc), exc.args[0], getattr(exc, "position", None)
    if isinstance(result, tuple):  # parse_numeral_prefix
        value, end = result
        return repr(value.terms), end
    if isinstance(result, GrossNumber):
        return repr(result.terms)
    return repr(result)


def calls(text: str, later: int):
    measured = f"mu {text}\npiece 1 {text}\ntarget [1..{text}]\n"
    return [
        (parse_numeral, text),
        (parse_numeral_prefix, text, 0),
        (parse_numeral_prefix, text, later),
        (parse_set_expression, text),
        (parse_set_expression, f"[{text}..{text}]"),
        (from_text, measured),
    ]


def assert_same_as_the_term_scanner(text: str, later: int):
    for call in calls(text, later):
        got = outcome(*call)
        with term_scanner_only():
            expected = outcome(*call)
        assert got == expected, call


@pytest.mark.parametrize("text", SHORT_TEXTS + LONG_TEXTS, ids=lambda t: t if len(t) < 12 else f"{len(t)} chars")
def test_edge_texts_read_as_the_term_scanner_reads_them(text):
    assert_same_as_the_term_scanner(text, min(1, len(text)))


plain_ints = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "+", "-", "−", "- "]),
    st.integers(0, 10**30).map(str),
    st.sampled_from(["", " ", "①", " ①", "*G1", "^2", ".5", ".", "..", "/3", " + 1", "-①", "]", " 7"]),
)


@seed(18018)
@settings(max_examples=300)
@given(st.one_of(plain_ints, st.text(ALPHABET, max_size=12), st.sampled_from(SHORT_TEXTS)), st.data())
def test_the_plain_integer_read_equals_the_term_scanner(text, data):
    later = data.draw(st.integers(0, len(text)), label="later")
    assert_same_as_the_term_scanner(text, later)


def test_a_measurements_text_reads_back_the_same_both_ways():
    for expression in ("[1..3]|[10..①]", "[-①..①]", "[-40..-30]|[5..9]|[200..2①+3]"):
        text = to_text(canonical_measurement(parse_set_expression(expression)))
        got = from_text(text)
        with term_scanner_only():
            assert from_text(text) == got


@pytest.mark.parametrize("text, value", [("0", 0), ("-0", 0), ("+12", 12), (" −7 ", -7), ("007", 7)])
def test_a_plain_integer_builds_no_term_list(monkeypatch, text, value):
    def refuse(pairs):
        raise AssertionError("the term scanner ran")

    monkeypatch.setattr(GrossNumber, "from_terms", staticmethod(refuse))
    monkeypatch.setattr(gnum, "_canonical_terms", refuse)
    assert parse_numeral(text).terms == (((0, value),) if value else ())


def test_interval_endpoints_build_no_term_list(monkeypatch):
    def refuse(pairs):
        raise AssertionError("the term scanner ran")

    monkeypatch.setattr(GrossNumber, "from_terms", staticmethod(refuse))
    monkeypatch.setattr(gnum, "_canonical_terms", refuse)
    assert str(parse_set_expression("[1..3]|[-12 .. 40]")) == "[-12..40]"
    assert from_text("mu 3\npiece 1 3 4\ntarget [5..7]\n").mu == 3


def test_a_term_past_the_plain_integer_still_goes_to_the_scanner():
    assert parse_numeral("12 - ①") == 12 - GROSSONE
    assert parse_numeral_prefix("3 ①", 0) == (3 * GROSSONE, 3)
    assert parse_numeral_prefix("3..4", 0) == (3, 1)


# ---------------------------------------------------------------- the start position


@pytest.mark.parametrize("pos", [-1, -2, -3, -(2**64)])
def test_a_negative_start_is_refused(pos):
    with pytest.raises(InvalidArgument, match="^pos must be at least 0$"):
        parse_numeral_prefix("1+①", pos)


@pytest.mark.parametrize("pos", [True, 1.0, "1", None])
def test_a_start_that_is_no_int_is_a_type_error(pos):
    with pytest.raises(TypeError, match="^pos must be an int"):
        parse_numeral_prefix("1+①", pos)


def test_a_start_past_the_end_is_refused():
    with pytest.raises(InvalidArgument, match="^pos must be at most 3, the length of the text$"):
        parse_numeral_prefix("1+①", 4)


def test_a_start_at_the_end_finds_no_number_there():
    with pytest.raises(ParseError) as info:
        parse_numeral_prefix("1+①", 3)
    assert info.value.position == 3
    assert parse_numeral_prefix("1+①", 2) == (GROSSONE, 3)
    assert parse_numeral_prefix("1+①", 0) == (GROSSONE + 1, 3)
