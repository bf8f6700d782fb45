"""The numeral parser against a recorded corpus, byte for byte.

``data/numeral_corpus.json`` holds about 2,100 seeded texts over the
numeral alphabet plus hand-picked edges (spacing, fractions in exponents,
decimals, the digit limit), each with the value or the ParseError that
``parse_numeral`` and ``parse_numeral_prefix`` gave for it when it was
written (see ``data/make_numeral_corpus.py``).  Any change to the parser
must reproduce every entry: each value with its exact entry types, each
error with its message and position.
"""

import json
import sys
from pathlib import Path

import pytest

from grossone.errors import ParseError
from grossone.gnum import parse_numeral, parse_numeral_prefix

CORPUS = json.loads((Path(__file__).parent / "data" / "numeral_corpus.json").read_text("utf-8"))


@pytest.fixture
def default_digit_limit():
    """The corpus was written at the interpreter's default int-to-string limit."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(before)


def _result(parse, text, *args) -> dict:
    try:
        got = parse(text, *args)
    except ParseError as exc:
        assert exc.text is text
        return {"error": exc.args[0], "position": exc.position}
    if isinstance(got, tuple):
        value, end = got
        return {"terms": repr(value.terms), "end": end}
    return {"terms": repr(got.terms)}


def test_the_corpus_covers_valid_and_invalid_texts_and_the_named_edges():
    texts = {e["text"] for e in CORPUS}
    assert len(CORPUS) >= 2000
    assert sum("terms" in e["full"] for e in CORPUS) > 800
    assert sum("error" in e["full"] for e in CORPUS) > 800
    assert {"①^- 2", "① ^2", "1 /2", "1/ 2", "①^( - 1 / 2)", "1.5/2", "2.", "3①4",
            "①^(1/2", "1/0", "G1^2.5", "7" * 5000} <= texts


@pytest.mark.usefixtures("default_digit_limit")
def test_parse_numeral_reproduces_the_corpus():
    wrong = [e["text"][:80] for e in CORPUS if _result(parse_numeral, e["text"]) != e["full"]]
    assert wrong == []


@pytest.mark.usefixtures("default_digit_limit")
def test_parse_numeral_prefix_reproduces_the_corpus():
    wrong = [
        e["text"][:80]
        for e in CORPUS
        if _result(parse_numeral_prefix, e["text"], e["start"]) != e["prefix"]
    ]
    assert wrong == []
