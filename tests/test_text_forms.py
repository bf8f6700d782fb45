"""Text grammars and measurement forms read through one scanner and one row walk.

ParseError positions index the text the caller passed; the measurement
loaders raise the library's own errors on malformed documents; text and
JSON round trips hold on symbolic sets; transport rejects exactly the
non-bijections that an int-set model rejects.
"""

import json
import pickle
from sys import get_int_max_str_digits, maxunicode

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.cli import main
from grossone.derived import parse_defined
from grossone.errors import InvalidMeasurement, NotABijection, ParseError
from grossone.gnum import _Scanner, parse_numeral, parse_numeral_prefix
from grossone.measure import (
    AffinePiece,
    canonical_measurement,
    from_json,
    from_jsonable,
    from_text,
    to_json,
    to_jsonable,
    to_text,
    transport,
)
from grossone.sets import interval, map_affine, parse_set_expression


def raised(fn, text) -> ParseError:
    with pytest.raises(ParseError) as info:
        fn(text)
    return info.value


def assert_points_into(exc: ParseError, text: str, position: int):
    assert exc.text == text
    assert exc.position == position
    assert 0 <= position <= len(text)
    assert str(exc).count("at position") == 1


# ------------------------------------------------------------ absolute positions

NUMERALS = [("7①+", 3), ("1/0", 2), ("2**", 2), ("①x", 1), (" 2①^(1/2", 8), ("", 0)]
SETS = [("[1..3", 5), ("[1..3] | frob(2)", 9), ("{1,,2}", 3), ("[1..2]]", 6), ("{1,2}&x", 6)]
DEFINED = [
    ("sqrtfloor(1+)", 12),
    ("logfloor(x, 3)", 9),
    ("logfloor(2 3)", 11),
    ("invfloor(pow x, 3)", 13),
    ("invfloor(exp 2, 3)", 9),
    ("frob(3)", 0),
    ("  sqrtfloor(5))", 14),
    ("sqrtfloor(2", 11),
    ("sqrtfloor", 9),
]


@pytest.mark.parametrize("text, position", NUMERALS)
def test_numeral_errors_index_the_numeral(text, position):
    assert_points_into(raised(parse_numeral, text), text, position)


@pytest.mark.parametrize("text, position", SETS)
def test_set_errors_index_the_whole_expression(text, position):
    assert_points_into(raised(parse_set_expression, text), text, position)


@pytest.mark.parametrize("text, position", DEFINED)
def test_defined_errors_index_the_whole_expression(text, position):
    assert_points_into(raised(parse_defined, text), text, position)


def run_json(*argv) -> tuple[int, dict]:
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize(
    "argv, text, position",
    [(("eval", t), t, p) for t, p in NUMERALS if t]
    + [(("cmp", "1", "2**"), "2**", 2), (("cmp", "①①", "1"), "①①", 1)]
    + [(("card", t), t, p) for t, p in SETS]
    + [(("measure", t), t, p) for t, p in SETS]
    + [(("define", t), t, p) for t, p in DEFINED],
)
def test_cli_positions_index_the_argument(argv, text, position):
    code, payload = run_json(*argv)
    assert code == 2
    error = payload["error"]
    assert error["type"] == "ParseError"
    assert error["position"] == position
    assert error["message"].endswith(f"at position {position} in {text!r}")


def test_define_reports_the_kappa_fault_in_the_expression():
    # The numeral inside sqrtfloor(...) used to be reported relative to
    # itself (position 2, which in the expression points at 'q').
    assert run_json("define", "sqrtfloor(1+)")[1]["error"]["position"] == 12


@pytest.mark.parametrize(
    "text, line, position",
    [
        ("mu 3\npiece 1 2x\n", "piece 1 2x", 9),
        ("mu 3\ntarget [1..3\n", "target [1..3", 12),
        ("mu 3\ntarget [1..3]]\n", "target [1..3]]", 13),
        ("mu 3\n   bogus 1\n", "   bogus 1", 3),
        ("mu x\n", "mu x", 3),
        ("mu 3\npiece 1  2 ①+\n", "piece 1  2 ①+", 13),
    ],
)
def test_from_text_errors_carry_the_line_and_its_column(text, line, position):
    exc = raised(from_text, text)
    assert_points_into(exc, line, position)
    assert str(exc).startswith(f"line {text.count(chr(10), 0, text.index(line)) + 1}: ")


def test_from_text_fields_do_not_run_into_each_other():
    m = canonical_measurement(parse_set_expression("[-①..①]|[2①..3①]"))
    text = to_text(m)
    assert "piece 1 2①+1 -①-1" in text
    assert from_text(text) == m


@pytest.mark.parametrize("space", [" ", "\t", "\n", "\u2003", "\u3000", "\x1c"])
def test_whitespace_is_whatever_str_isspace_accepts(space):
    assert space.isspace()
    assert parse_numeral(f"{space}2①{space}+{space}1{space}") == parse_numeral("2①+1")
    spaced = f"{space}[1{space}..{space}①]{space}\\{space}{{1}}{space}"
    assert parse_set_expression(spaced) == parse_set_expression("[1..①]\\{1}")
    assert parse_defined(f"logfloor({space}2,{space}9{space})") == parse_defined("logfloor(2,9)")


SPACES = [chr(i) for i in range(maxunicode + 1) if chr(i).isspace()]
TERMS = ["3", "0", "1/2", "0.25", "①", "G1", "2①^2", "7/3*G1^(1/3)", "①^-1", "12345678901①^(5/2)", "9 * ①"]
# What may follow a numeral: nothing, a dangling or doubled sign, or the text around it.
ENDS = ["", " ", "+", " - ", "−\n", "+ +", "- −1", "..3]", " ]", ")", " x", "+ ①^"]


@st.composite
def summed_texts(draw):
    """Terms joined by +, - or − amid runs of every isspace() character, some signs doubled."""
    spaces = st.text(st.sampled_from(SPACES), max_size=3)
    signs = st.sampled_from("+-−")
    parts = [draw(spaces), draw(st.sampled_from(["", "+", "-", "−"])), draw(spaces)]
    for i in range(draw(st.integers(1, 5))):
        if i:
            parts += [draw(spaces), draw(signs), draw(spaces)]
            if draw(st.integers(0, 9)) == 0:
                parts += [draw(signs), draw(spaces)]
        parts.append(draw(st.sampled_from(TERMS)))
    parts.append(draw(st.sampled_from(ENDS)))
    return "".join(parts)


def outcome(read, text):
    """(terms, their entry types, end) of ``read(text)``, or its ParseError's message and position."""
    try:
        value, end = read(text)
    except ParseError as exc:
        return "refused", exc.args[0], exc.position
    return value.terms, [(type(e), type(c)) for e, c in value.terms], end


def reference_whole(text):
    """``parse_numeral`` with the reference sum loop: the numeral, then nothing but whitespace."""
    value, end = oracles.reference_parse_sum(text)
    _Scanner(text, end).finish()
    return value, len(text)


@seed(30003)
@given(summed_texts())
def test_the_sign_between_terms_reads_as_the_reference_loop_reads_it(text):
    assert outcome(parse_numeral_prefix, text) == outcome(oracles.reference_parse_sum, text)
    assert outcome(lambda t: (parse_numeral(t), len(t)), text) == outcome(reference_whole, text)


def test_parse_errors_survive_pickling():
    exc = raised(parse_numeral, "7①+")
    again = pickle.loads(pickle.dumps(exc))
    assert (str(again), again.text, again.position) == (str(exc), exc.text, exc.position)


class TestIntegerFields:
    """An integer field of a defined form is an optional sign and ASCII digits."""

    @pytest.mark.parametrize("text", ["logfloor(+2, 9)", "logfloor( 2 , 9)", "invfloor(pow +2, 9)"])
    def test_accepted(self, text):
        assert str(parse_defined(text).kappa) == "9"

    @pytest.mark.parametrize(
        "text", ["logfloor(2_0, 9)", "logfloor(２, 9)", "logfloor(2.0, 9)", "logfloor(- 2, 9)"]
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_defined(text)


# ------------------------------------------------------------ JSON documents

GOOD = {"mu": "3", "pieces": [{"lo": "1", "hi": "3"}], "target": [{"lo": "1", "hi": "3"}]}


@pytest.mark.parametrize(
    "doc, path",
    [
        ("{}", "$.mu"),
        ("[]", "$"),
        ('{"mu": 3}', "$.mu"),
        ('{"mu": "3"}', "$.pieces"),
        ('{"mu": "3", "pieces": [{"lo": "1"}], "target": []}', "$.pieces[0].hi"),
        ('{"mu": "3", "pieces": [{"lo": "1", "hi": "3", "offset": null}]}', "$.pieces[0].offset"),
        ('{"mu": "3", "pieces": [7], "target": []}', "$.pieces[0]"),
        (json.dumps({**GOOD, "target": {}}), "$.target"),
        (json.dumps({**GOOD, "target": [{"hi": "3"}]}), "$.target[0].lo"),
    ],
)
def test_malformed_documents_raise_parse_errors_naming_the_path(doc, path):
    exc = raised(from_json, doc)
    assert exc.text == path
    assert f"in {path!r}" in str(exc)
    assert raised(from_jsonable, json.loads(doc)).text == path


@pytest.mark.parametrize("doc", ["nope", '{"mu": "3", "pieces": [', '{"mu": "3",}', ""])
def test_invalid_json_is_a_parse_error_at_the_decoder_offset(doc):
    with pytest.raises(json.JSONDecodeError) as decoder:
        json.loads(doc)
    assert_points_into(raised(from_json, doc), doc, decoder.value.pos)


def test_deeply_nested_json_is_a_parse_error():
    doc = "[" * 100_000
    assert raised(from_json, doc).text == doc


@pytest.mark.skipif(not get_int_max_str_digits(), reason="no int-to-string digit limit is set")
def test_a_json_number_past_the_digit_limit_is_a_parse_error_at_position_0():
    doc = '{"mu": 1' + "0" * get_int_max_str_digits() + "}"
    exc = raised(from_json, doc)
    assert (exc.args[0], exc.text, exc.position) == ("invalid JSON: number has too many digits", doc, 0)


def test_a_bad_numeral_names_its_path_and_points_into_the_string():
    exc = raised(from_json, json.dumps({**GOOD, "mu": "1+"}))
    assert_points_into(exc, "1+", 2)
    assert str(exc).startswith("$.mu: expected a number")


def test_bad_content_stays_invalid_measurement():
    assert from_json(json.dumps(GOOD)).mu == 3
    with pytest.raises(InvalidMeasurement):
        from_json(json.dumps({**GOOD, "pieces": []}))
    with pytest.raises(InvalidMeasurement):
        from_json(json.dumps({**GOOD, "mu": "4"}))


# ------------------------------------------------------------ round trips


@st.composite
def symbolic_sets(draw):
    """random_symbolic_set, moved by a rigid motion that can make it negative."""
    s = oracles.random_symbolic_set(draw(st.randoms(use_true_random=False)))
    return map_affine(s, draw(st.sampled_from([1, -1])), draw(st.integers(-300, 300)))


@seed(20261018)
@given(symbolic_sets(), st.booleans())
def test_text_round_trip(s, ascii_mode):
    m = canonical_measurement(s)
    assert from_text(to_text(m, ascii_mode=ascii_mode)) == m


@seed(20261019)
@given(symbolic_sets(), st.booleans())
def test_json_round_trip(s, ascii_mode):
    m = canonical_measurement(s)
    assert from_json(to_json(m, ascii_mode=ascii_mode)) == m
    assert from_jsonable(to_jsonable(m, ascii_mode=ascii_mode)) == m


@seed(20261020)
@given(symbolic_sets(), st.integers(-5, 5))
def test_round_trips_of_transported_measurements(s, shift):
    # A shift moves every piece's offset, so rows with and without one occur.
    moved = transport(canonical_measurement(s), [AffinePiece(p, shift) for p in s.parts])
    assert from_text(to_text(moved)) == moved == from_json(to_json(moved))


# ------------------------------------------------------------ transport model


def model_verdict(target: set[int], pieces) -> str | None:
    """The first bijection check that fails, in transport's order, or None."""

    def overlap(ranges) -> bool:
        return sum(len(r) for r in ranges) != len(set().union(*ranges))

    domains = [range(lo, hi + 1) for lo, hi, _ in pieces]
    if overlap(domains):
        return "domains overlap"
    if set().union(*domains) != target:
        return "do not partition"
    if overlap([range(lo + off, hi + off + 1) for lo, hi, off in pieces]):
        return "images overlap"
    return None


@st.composite
def bijection_candidates(draw):
    """A finite target and pieces that often, but not always, biject it."""
    rng = draw(st.randoms(use_true_random=False))
    s = oracles.random_finite_set(rng, -20, 40, 3)
    chunks = []
    for part in s.parts:
        lo, hi = part.lo.as_int(), part.hi.as_int()
        while lo <= hi:
            cut = rng.randint(lo, hi)
            chunks.append([lo, cut])
            lo = cut + 1
    mutation = rng.choice(["none", "none", "grow", "drop", "shift"])
    if mutation == "grow":
        chunks[rng.randrange(len(chunks))][rng.randrange(2)] += rng.choice([-1, 1])
        chunks = [c for c in chunks if c[0] <= c[1]]
    elif mutation == "drop" and len(chunks) > 1:
        chunks.pop(rng.randrange(len(chunks)))
    spread = rng.choice([3, 100])
    pieces = [(lo, hi, rng.randint(-spread, spread)) for lo, hi in chunks]
    if mutation == "shift" and len(pieces) > 1:
        # Send the start of one piece onto the start of another's image.
        i, j = rng.sample(range(len(pieces)), 2)
        lo, hi, _ = pieces[i]
        pieces[i] = (lo, hi, pieces[j][0] + pieces[j][2] - lo)
    return s, pieces


@seed(20261021)
@given(bijection_candidates())
def test_transport_rejects_exactly_the_model_non_bijections(case):
    s, pieces = case
    verdict = model_verdict(oracles.set_model(s), pieces)
    bijection = [AffinePiece(interval(lo, hi), off) for lo, hi, off in pieces]
    m = canonical_measurement(s)
    if verdict is None:
        moved = transport(m, bijection)
        images = {x + off for lo, hi, off in pieces for x in range(lo, hi + 1)}
        assert oracles.set_model(moved.target) == images
        assert moved.mu == m.mu
    else:
        with pytest.raises(NotABijection, match=verdict):
            transport(m, bijection)
