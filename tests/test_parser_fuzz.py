"""The library's parsers on seeded mutated and junk text raise nothing but GrossoneError.

Each parser gets well-formed texts of its own grammar, mutated by a few
seeded edits (a slice replaced by characters of the grammars' alphabet or
by itself twice), and plain junk over that alphabet.  A parser may accept
the text or refuse it with a GrossoneError; any other exception fails.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from grossone.derived import parse_defined
from grossone.errors import GrossoneError
from grossone.gnum import parse_numeral, parse_numeral_prefix
from grossone.measure import canonical_measurement, from_json, from_text, to_json, to_text
from grossone.numeral_system import parse_system
from grossone.sets import parse_set_expression

ALPHABET = "0123456789①G^()[]{}.,:|&\\/*+-−\" \nabcefgilmnoprstuvx"

NUMERALS = [
    "0", "-7", "3/4", "2.5", "①", "G1", "2*G1+1", "①^2-3①+1/2", "①^(1/2)", "5①^(-2/3)",
    "−①+1", "①^-1", "12345678901234567890", "1/3①^3 - ①", " 7 ",
]
SETS = [
    "[1..①]", "[-①..①]", "{1,2,3}", "{}", "[1..3]|[10..①]", "[1..①]\\{1}", "iota([1..①], 3)",
    "[1..①]&[5..2①]", "reflect([1..5], 0)", "hull({1, ①})", "([1..2]|[4..5])&[2..4]",
]
DESCRIPTORS = ["piraha", "finite:3:10", "finite:1:2", "gross:2:3:1", "gross:1:1:1", "finite:12:16"]
DEFINITIONS = [
    "sqrtfloor(100)", "sqrtfloor(①)", "logfloor(2, ①)", "logfloor(10, 999)", "invfloor(pow 3, 27)",
    "invfloor(pow 2, ①^2)",
]
MEASURED = [canonical_measurement(parse_set_expression(s)) for s in ("[1..3]", "[1..3]|[10..①]", "[-①..①]")]
TEXTS = [to_text(m) for m in MEASURED] + [to_text(m, ascii_mode=True) for m in MEASURED]
JSONS = [to_json(m) for m in MEASURED]
# Documents of the wrong shape, kept in the mutation pool beside the good ones.
BAD_JSONS = ["[]", "{}", '{"mu": 3}', '{"mu": "1", "pieces": [{"lo": "1"}], "target": []}', "1e999", '"x"']

PARSERS = {
    "parse_numeral": (parse_numeral, NUMERALS),
    "parse_numeral_prefix": (parse_numeral_prefix, NUMERALS),
    "parse_set_expression": (parse_set_expression, SETS),
    "parse_system": (parse_system, DESCRIPTORS),
    "parse_defined": (parse_defined, DEFINITIONS),
    "from_text": (from_text, TEXTS),
    "from_json": (from_json, JSONS),
}
EXTRA = {"from_json": BAD_JSONS}


@st.composite
def mutated(draw, pool):
    """A text of ``pool`` with up to four slices replaced."""
    text = draw(st.sampled_from(pool))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        piece = draw(st.one_of(st.text(ALPHABET, max_size=3), st.just(text[i:j] * 2)))
        text = text[:i] + piece + text[j:]
    return text


def texts(pool):
    return st.one_of(mutated(pool), mutated(pool), mutated(pool), st.text(ALPHABET, max_size=16))


@pytest.mark.parametrize("name", sorted(PARSERS))
@seed(17007)
@settings(max_examples=50)
@given(data=st.data())
def test_a_parser_raises_nothing_but_its_own_errors(name, data):
    parse, pool = PARSERS[name]
    for text in data.draw(st.lists(texts(pool + EXTRA.get(name, [])), min_size=1, max_size=8), label="texts"):
        args = (text,)
        if parse is parse_numeral_prefix:
            args += (data.draw(st.integers(0, len(text)), label="pos"),)
        try:
            parse(*args)
        except GrossoneError:
            pass


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_each_parser_reads_its_own_well_formed_texts(name):
    parse, pool = PARSERS[name]
    for text in pool:
        parse(text)
