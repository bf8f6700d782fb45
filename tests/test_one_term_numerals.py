"""A numeral of one term is read as that term, with no merge.

``parse_sum`` reads every numeral with the term loop; where the loop reads
exactly one term, that term is the canonical value as it stands (or zero,
for a zero coefficient), so no term list is built or merged.  The
reference, ``oracles.reference_parse_sum``, reads the same terms and merges
them with ``GrossNumber.from_terms``: on any one-term numeral text both must
give the same terms, int or Fraction alike, and the same end, or the same
error, message and position.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import grossone.gnum as gnum
import oracles
from grossone.errors import GrossoneError
from grossone.gnum import GrossNumber, parse_numeral, parse_numeral_prefix

LIMIT = gnum._SHORT_TERM


def outcome(parse, text, pos):
    try:
        value, end = parse(text, pos)
    except GrossoneError as exc:
        return type(exc), exc.args[0], getattr(exc, "position", None)
    return repr(value.terms), end


# Digit runs of a few digits, and runs that put a term on either side of
# the length the one-match term read takes.
run_lengths = st.one_of(st.integers(1, 4), st.sampled_from([LIMIT - 4, LIMIT - 2, LIMIT - 1, LIMIT, LIMIT + 1]))


@st.composite
def digits(draw, nonzero=False):
    n = draw(run_lengths)
    zeros = draw(st.sampled_from(["", "0", "00"]))
    first = draw(st.sampled_from("123456789" if nonzero else "0123456789"))
    return zeros + first + draw(st.text("0123456789", min_size=n - 1, max_size=n - 1))


@st.composite
def rationals(draw):
    whole = draw(digits())
    kind = draw(st.sampled_from(["int", "decimal", "fraction"]))
    if kind == "decimal":
        return f"{whole}.{draw(digits())}"
    if kind == "fraction":
        return f"{whole}/{draw(digits(nonzero=True))}"
    return whole


signs = st.sampled_from(["", "+", "-", "−"])
spaces = st.sampled_from(["", " ", "\t", "\n  "])
bases = st.sampled_from(["①", "G1"])


@st.composite
def exponents(draw):
    kind = draw(st.sampled_from(["none", "plain", "signed", "parenthesised"]))
    if kind == "none":
        return ""
    if kind == "plain":
        return "^" + draw(rationals())
    if kind == "signed":
        return "^" + draw(st.sampled_from(["-", "−", "+"])) + draw(rationals())
    inner = draw(spaces) + draw(signs) + draw(spaces) + draw(rationals()) + draw(spaces)
    return f"^{draw(spaces)}({inner})"


@st.composite
def terms(draw):
    kind = draw(st.sampled_from(["coefficient", "base", "both", "starred"]))
    if kind == "coefficient":
        return draw(rationals())
    gross = draw(bases) + draw(exponents())
    if kind == "base":
        return gross
    if kind == "both":
        return draw(rationals()) + draw(spaces) + gross
    return draw(rationals()) + draw(spaces) + "*" + draw(spaces) + gross


@st.composite
def one_term_texts(draw):
    prefix = draw(st.sampled_from(["", "[", "x "]))
    sign = draw(signs) + draw(spaces) if draw(st.booleans()) else ""
    # What may follow a numeral without continuing it.
    after = draw(st.sampled_from(["", " ", "..", " ..", "]", ")", " x", ",", "^", ".", "|"]))
    text = prefix + draw(spaces) + sign + draw(terms()) + draw(spaces) + after
    return text, len(prefix)


@seed(35350)
@given(one_term_texts())
def test_a_one_term_numeral_reads_as_the_reference_reads_it(case):
    text, pos = case
    got = outcome(parse_numeral_prefix, text, pos)
    assert got == outcome(oracles.reference_parse_sum, text, pos)


@pytest.mark.parametrize(
    "text, terms",
    [
        ("0", ()),
        ("-0", ()),
        (" −7 ", ((0, -7),)),
        ("007", ((0, 7),)),
        ("3①", ((1, 3),)),
        ("①^2", ((2, 1),)),
        ("-1/2", ((0, Fraction(-1, 2)),)),
        ("0①", ()),
        ("0.0 * G1^3", ()),
        ("4 * G1^-2", ((-2, 4),)),
        ("−2.5G1^(−3/4)", ((Fraction(-3, 4), Fraction(-5, 2)),)),
        ("①^(4/2)", ((2, 1),)),
        ("①^-0", ((0, 1),)),
        ("9" * (LIMIT + 1), ((0, int("9" * (LIMIT + 1))),)),
        ("8" * LIMIT + "①", ((1, int("8" * LIMIT)),)),
    ],
    ids=lambda v: (v if len(v) < 20 else f"{len(v)} chars") if isinstance(v, str) else None,
)
def test_a_one_term_numeral_builds_no_term_list(monkeypatch, text, terms):
    def refuse(pairs):
        raise AssertionError("a term list was merged")

    monkeypatch.setattr(GrossNumber, "from_terms", staticmethod(refuse))
    monkeypatch.setattr(gnum, "_canonical_terms", refuse)
    got = parse_numeral(text).terms
    assert got == terms
    assert [tuple(map(type, term)) for term in got] == [tuple(map(type, term)) for term in terms]

