"""The int-or-Fraction term representation, and sympy as a second oracle.

Every term built by the library holds an integral exponent or coefficient
as an exact ``int`` and a non-integral one as a ``Fraction``.  Values
built directly from Fraction-typed integral terms stay equal, with equal
hashes, to their normalised twins; ``bool`` and ``float`` entries stay
rejected.  Products and exact quotients of integer-exponent values are
checked against sympy polynomials.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.errors import NotExact
from grossone.gnum import (
    ONE,
    GrossNumber,
    Sign,
    add,
    cmp,
    div_exact,
    finite,
    gross_term,
    mul,
    parse_numeral,
    sub,
)
from grossone.measure import canonical_measurement
from grossone.sets import cardinality, parse_set_expression


def assert_normal(x: GrossNumber):
    for exponent, coefficient in x.terms:
        for value in (exponent, coefficient):
            if value.denominator == 1:
                assert type(value) is int, x.terms
            else:
                assert type(value) is Fraction, x.terms


# ------------------------------------------------------------------ numerals

exponents = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
coefficients = st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=7))
term_lists = st.lists(st.tuples(exponents, coefficients), max_size=5)

# Spellings of integral and non-integral rationals the numeral grammar takes.
rational_texts = st.sampled_from(["3", "12", "2.50", "0.75", "1.0", "6/3", "1/2", "4/6", "10/5"])
exponent_texts = st.sampled_from(
    ["2", "-1", "1.5", "(1/2)", "(-1/2)", "(4/2)", "(-6/3)", "(2/3)", "(3/2)", "(1.0)"]
)


@st.composite
def numeral_texts(draw):
    text = ""
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["finite", "gross", "power", "bare"]))
        if kind == "finite":
            term = draw(rational_texts)
        elif kind == "gross":
            term = draw(rational_texts) + "①"
        elif kind == "power":
            term = f"{draw(rational_texts)}*G1^{draw(exponent_texts)}"
        else:
            term = f"①^{draw(exponent_texts)}"
        sign = draw(st.sampled_from(["+", "-"]))
        text += (sign if i or sign == "-" else "") + term
    return text


@seed(401)
@given(numeral_texts())
def test_parsed_numerals_hold_ints_where_integral(text):
    assert_normal(parse_numeral(text))


@seed(402)
@given(term_lists)
def test_from_terms_normalises_its_input(pairs):
    assert_normal(GrossNumber.from_terms(pairs))


@pytest.mark.parametrize(
    "text, want",
    [
        ("1/3+2/3", ((0, 1),)),
        ("1/2①+1/2①-5/2", ((1, 1), (0, Fraction(-5, 2)))),
        ("①^(1/2)+①^(2/4)", ((Fraction(1, 2), 2),)),
        ("3/4G1^(6/3)+0.25G1^2", ((2, 1),)),
    ],
)
def test_like_terms_summing_to_integers_come_out_as_ints(text, want):
    # The parser hands like terms to from_terms, which merges them.
    x = parse_numeral(text)
    assert x.terms == want
    assert_normal(x)


@seed(403)
@given(term_lists, term_lists)
def test_arithmetic_results_hold_ints_where_integral(p, q):
    x, y = GrossNumber.from_terms(p), GrossNumber.from_terms(q)
    for result in (add(x, y), sub(x, y), mul(x, y), x - x, -x, x**2):
        assert_normal(result)
    if not y.is_zero:
        assert_normal(div_exact(mul(x, y), y))
        try:
            assert_normal(div_exact(x, y))
        except NotExact:
            pass


@pytest.mark.parametrize(
    "left, op, right, want",
    [
        ("①^(1/2)", mul, "①^(1/2)", ((1, 1),)),
        ("2/3①^(1/3)", mul, "3/2①^(2/3)", ((1, 1),)),
        ("1/2①", add, "1/2①+1/2", ((1, 1), (0, Fraction(1, 2)))),
        ("①^(3/2)+1/3", sub, "①^(1/2)-2/3", ((Fraction(3, 2), 1), (Fraction(1, 2), -1), (0, 1))),
        ("1", div_exact, "3", ((0, Fraction(1, 3)),)),
        ("6", div_exact, "3", ((0, 2),)),
        ("3①^2", div_exact, "3/2①", ((1, 2),)),
        ("①", div_exact, "①^(1/2)", ((Fraction(1, 2), 1),)),
        ("①^(3/2)", div_exact, "①^(1/2)", ((1, 1),)),
        ("①^2-1", div_exact, "①+1", ((1, 1), (0, -1))),
    ],
)
def test_integral_results_come_out_as_ints(left, op, right, want):
    result = op(parse_numeral(left), parse_numeral(right))
    assert result.terms == want
    assert_normal(result)


def test_division_never_produces_a_float():
    for x, y in [(1, 3), (2, 7), (-5, 10)]:
        (term,) = div_exact(finite(x), finite(y)).terms
        assert term == (0, Fraction(x, y))
        assert type(term[1]) is Fraction


# ------------------------------------------------------------------ twins and types


def fraction_typed(x: GrossNumber) -> GrossNumber:
    """The same value, built directly with every entry a Fraction."""
    return GrossNumber(tuple((Fraction(e), Fraction(c)) for e, c in x.terms))


@seed(404)
@given(term_lists)
def test_fraction_typed_twins_are_equal_and_hash_equal(pairs):
    x = GrossNumber.from_terms(pairs)
    twin = fraction_typed(x)
    assert twin == x and x == twin
    assert hash(twin) == hash(x)
    assert cmp(twin, x) == Sign.ZERO
    assert {twin: "value"}[x] == "value"


def test_fraction_typed_finite_twins_hash_like_the_rational():
    twin = GrossNumber(((Fraction(0), Fraction(7)),))
    assert twin == 7 and hash(twin) == hash(7) == hash(finite(7))


@pytest.mark.parametrize("text", ["0", "3", "-7/3", "2.5", "①", "①^(1/2)-1"])
def test_as_fraction_and_coefficient_return_fractions(text):
    x = parse_numeral(text)
    assert type(x.coefficient(0)) is Fraction
    assert type(x.coefficient(Fraction(1, 2))) is Fraction
    if x.is_zero or x.terms[0][0] == 0:
        assert type(x.as_fraction()) is Fraction
        assert x.as_fraction() == x


@pytest.mark.parametrize(
    "terms",
    [
        ((0, True),),
        ((True, 1),),
        ((0, 1.0),),
        ((1.0, 1),),
        ((Fraction(1, 2), 0.5),),
        ((1, 1), (0, False)),
    ],
)
def test_bool_and_float_entries_are_rejected(terms):
    with pytest.raises(ValueError):
        GrossNumber(terms)


def test_float_inputs_raise_type_errors_and_bools_map_to_ints():
    for build in (finite, gross_term, lambda v: GrossNumber.from_terms([(0, v)])):
        with pytest.raises(TypeError):
            build(1.0)
    assert finite(True).terms == ONE.terms
    assert type(finite(True).terms[0][1]) is int
    assert type(gross_term(True, True).terms[0][0]) is int


# ------------------------------------------------------------------ sets and measurements


def assert_measurement_normal(s):
    m = canonical_measurement(s)
    assert_normal(m.mu)
    for piece in m.pieces:
        for value in (piece.domain.lo, piece.domain.hi, piece.offset):
            assert_normal(value)
    for part in m.target.parts:
        assert_normal(part.lo)
        assert_normal(part.hi)


@seed(405)
@given(st.integers(0, 10**6))
def test_counts_and_measurements_of_random_sets_hold_ints(n):
    s = oracles.random_symbolic_set(Random(n))
    assert_normal(cardinality(s))
    assert_measurement_normal(s)


@pytest.mark.parametrize(
    "text",
    [
        "{5}",
        "[1..①]\\{1}",
        "[-①..①]",
        "[1..①^(1/2)]",
        "[1..①^(3/2)]\\[①^(1/2)..①]",
        "[-①^(3/2)..①^(3/2)-1]|{①^2}",
    ],
)
def test_counts_and_measurements_with_fractional_exponents_hold_ints(text):
    s = parse_set_expression(text)
    assert_normal(cardinality(s))
    assert_measurement_normal(s)


# ------------------------------------------------------------------ sympy oracle

int_exponent_polys = st.dictionaries(
    st.integers(-3, 3),
    st.one_of(st.integers(-20, 20), st.fractions(-20, 20, max_denominator=5)),
    max_size=4,
).map(lambda p: {e: c for e, c in p.items() if c != 0})
nonzero_polys = int_exponent_polys.filter(bool)


def value(p: dict) -> GrossNumber:
    return GrossNumber.from_terms(p.items())


@seed(406)
@given(int_exponent_polys, int_exponent_polys)
def test_mul_matches_sympy(p, q):
    assert oracles.poly_from(mul(value(p), value(q))) == oracles.sympy_mul(p, q)


@seed(407)
@given(int_exponent_polys, nonzero_polys)
def test_div_exact_matches_sympy(p, q):
    want = oracles.sympy_div(p, q)
    if want is None:
        with pytest.raises(NotExact):
            div_exact(value(p), value(q))
    else:
        assert oracles.poly_from(div_exact(value(p), value(q))) == want


@seed(408)
@given(int_exponent_polys, nonzero_polys)
def test_div_exact_undoes_mul_like_sympy(p, q):
    product = oracles.sympy_mul(p, q)
    got = div_exact(value(product), value(q))
    assert oracles.poly_from(got) == oracles.sympy_div(product, q) == p
