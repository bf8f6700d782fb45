"""The numeral core carries each input exponent through a merge, and keys each operand in one pass.

``gnum._canonical_terms`` merges exponents on int keys ``e * L`` and turns
each key back into the input exponent it was made from, so a fractional
exponent in its result is an object from its input, never rebuilt.
``mul`` and ``div_exact`` read each operand's L (the lcm of its exponents'
denominators) and D (the lcm of its coefficients') in one pass, so the two
operands here differ in both.  ``format_numeral`` writes each term by its
entries' types; ``oracles.reference_format_numeral`` writes it as the
comparison-first writer did.

No property here fixes ``max_examples``, so the ``deep`` Hypothesis
profile (``--hypothesis-profile=deep``) runs each on ten times the examples.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone import gnum
from grossone.errors import NotExact
from grossone.gnum import GROSSONE, GrossNumber, div_exact, format_numeral, gross_term, mul, parse_numeral


def assert_same_terms(got: tuple, want: tuple):
    """Equal term for term, and equal in type: an int is never an integral Fraction."""
    assert got == want
    for (e, c), (we, wc) in zip(got, want):
        assert (type(e), type(c)) == (type(we), type(wc)), (got, want)


def fractions_over(denominators, span: int):
    """A new non-integral Fraction object per draw, k/d for d in ``denominators`` and |k| <= span."""
    return (
        st.tuples(st.integers(-span, span), st.sampled_from(denominators))
        .filter(lambda t: t[0] % t[1])
        .map(lambda t: Fraction(*t))
    )


# Few values, so that exponents repeat, as equal objects that are not the same object.
exponents = st.one_of(st.integers(-3, 3), fractions_over((2, 3, 4, 6), 13))
coefficients = st.one_of(st.integers(-(10**12), 10**12).filter(bool), fractions_over((2, 7, 10**9 + 7), 10**6))


@st.composite
def pair_lists(draw):
    """Canonical entries in any order, with repeats and with copies whose coefficients cancel."""
    pairs = draw(st.lists(st.tuples(exponents, coefficients), max_size=24))
    if pairs:
        copies = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        # A copy's exponent is a new object of equal value, its coefficient negated or not.
        pairs += [(Fraction(e) if type(e) is Fraction else e, draw(st.sampled_from([-c, c]))) for e, c in copies]
        pairs = draw(st.permutations(pairs))
    return pairs


@seed(33001)
@given(pair_lists())
def test_canonical_terms_agree_with_the_reference(pairs):
    assert_same_terms(gnum._canonical_terms(pairs), oracles.reference_terms(pairs))


@seed(33002)
@given(pair_lists())
def test_each_fractional_exponent_is_an_input_object(pairs):
    inputs = {id(e) for e, _ in pairs}
    for e, _ in gnum._canonical_terms(pairs):
        if type(e) is Fraction:
            assert id(e) in inputs, e


def test_repeats_cancellations_and_mixed_exponents():
    half, third = Fraction(1, 2), Fraction(-1, 3)
    pairs = [(half, 3), (2, Fraction(1, 7)), (Fraction(1, 2), -3), (third, 5), (0, 4), (2, Fraction(6, 7)), (third, 1)]
    got = gnum._canonical_terms(pairs)
    assert_same_terms(got, ((2, 1), (0, 4), (third, 6)))
    assert got[2][0] is third
    assert_same_terms(gnum._canonical_terms([(half, 1), (Fraction(1, 2), -1)]), ())
    assert_same_terms(gnum._canonical_terms([(3, 2), (-1, 5), (3, -2)]), ((-1, 5),))
    assert parse_numeral("①^(1/2) + 2①^(1/2) - 3①^(1/2) + ①^(-1/3)").terms == ((third, 1),)


# ---------------------------------------------------------------- products and quotients


def numbers(exponent_denominators, coefficient_denominators, max_terms: int):
    """Numbers of 1 to ``max_terms`` terms whose leading draw has a fractional exponent and coefficient.

    The first drawn term carries one of the given denominators in each entry,
    so that L and D differ between two numbers drawn on disjoint ones.
    """
    first = st.tuples(fractions_over(exponent_denominators, 19), fractions_over(coefficient_denominators, 10**4))
    other = st.tuples(
        st.one_of(st.integers(-4, 4), fractions_over(exponent_denominators, 19)),
        st.one_of(st.integers(-999, 999).filter(bool), fractions_over(coefficient_denominators, 10**4)),
    )
    rest = st.lists(other, max_size=max_terms - 1, unique_by=lambda t: t[0])
    # No other term shares the first one's exponent, so no sum cancels it.
    return st.builds(lambda t, rest: [t, *(r for r in rest if r[0] != t[0])], first, rest).map(GrossNumber.from_terms)


def scale_of(entries) -> int:
    return lcm(*(Fraction(v).denominator for v in entries))


# Some coefficient denominators divide the same operand's L, so that D cannot be read off L.
xs = numbers((2, 4), (2, 7, 49, 10**9 + 7), 6)
ys = numbers((3, 9), (3, 11, 2**61 - 1), 6)


@seed(33003)
@given(xs, ys)
def test_products_and_quotients_of_operands_with_their_own_scales(x, y):
    assert scale_of(e for e, _ in x.terms) != scale_of(e for e, _ in y.terms)
    assert scale_of(c for _, c in x.terms) != scale_of(c for _, c in y.terms)
    px, py = oracles.poly_from(x), oracles.poly_from(y)
    product = mul(x, y)
    assert oracles.poly_equal(oracles.poly_mul(px, py), product)
    assert_same_terms(product.terms, oracles.reference_terms(oracles.poly_mul(px, py).items()))
    assert_same_terms(div_exact(product, y).terms, x.terms)
    assert_same_terms(div_exact(product, x).terms, y.terms)
    # A one-term divisor always divides, though its L need not divide the dividend's.
    x_lead, y_lead = (gross_term(c, e) for e, c in (x.terms[0], y.terms[0]))
    cases = ((x, y), (y, x), (product + x, y), (product - y, x), (product + 1, x), (x, y_lead), (y, x_lead))
    for dividend, divisor in cases:
        quotient = oracles.reference_long_division(oracles.poly_from(dividend), oracles.poly_from(divisor))
        if quotient is None:
            with pytest.raises(NotExact):
                div_exact(dividend, divisor)
        else:
            assert_same_terms(div_exact(dividend, divisor).terms, oracles.reference_terms(quotient.items()))


def test_one_term_operands_on_their_own_scales():
    x = gross_term(Fraction(3, 7), Fraction(1, 2))
    y = GrossNumber.from_terms([(Fraction(2, 3), Fraction(5, 11)), (Fraction(-1, 9), 4)])
    for a, b in ((x, y), (y, x), (x, x)):
        product = a * b
        assert oracles.poly_equal(oracles.poly_mul(oracles.poly_from(a), oracles.poly_from(b)), product)
        assert_same_terms(div_exact(product, b).terms, a.terms)
    with pytest.raises(NotExact):
        div_exact(x, y)
    # L is 9 for y and 2 for x, and the quotient's is 18.
    want = oracles.reference_terms([(Fraction(1, 6), Fraction(35, 33)), (Fraction(-11, 18), Fraction(28, 3))])
    assert_same_terms(div_exact(y, x).terms, want)


def test_coefficient_denominators_that_divide_the_exponent_lcm():
    # L is 2 and D is 2 for x, L is 3 and D is 3 for y: D is no multiple L leaves out.
    x = GrossNumber.from_terms([(Fraction(1, 2), Fraction(1, 2)), (0, 1)])
    y = GrossNumber.from_terms([(Fraction(1, 3), Fraction(5, 3)), (0, 2)])
    product = x * y
    assert oracles.poly_equal(oracles.poly_mul(oracles.poly_from(x), oracles.poly_from(y)), product)
    assert_same_terms(div_exact(product, y).terms, x.terms)
    assert_same_terms(div_exact(product, x).terms, y.terms)


# ---------------------------------------------------------------- writing terms


format_exponents = st.one_of(st.sampled_from([0, 1, -1, 2, -2, 10**30]), fractions_over((2, 3, 7), 20))
format_coefficients = st.one_of(st.sampled_from([1, -1, 2, -2]), st.integers(), fractions_over((2, 3, 10**20), 10**25))
format_values = st.lists(st.tuples(format_exponents, format_coefficients), max_size=6).map(GrossNumber.from_terms)


@seed(33004)
@given(format_values, st.booleans())
def test_format_numeral_agrees_with_the_comparison_first_writer(x, ascii_mode):
    assert format_numeral(x, ascii_mode=ascii_mode) == oracles.reference_format_numeral(x, ascii_mode)


@pytest.mark.parametrize(
    "text, written",
    [
        ("①", "①"),
        ("-①", "-①"),
        ("①^2 - ①^-1", "①^2-①^-1"),
        ("-①^(1/2) + ①^(-3/2)", "-①^(1/2)+①^(-3/2)"),
        ("2/3①^(-1/7) - 1", "-1+2/3①^(-1/7)"),
        ("-5①^0 + 7①^1", "7①-5"),
        ("1/2", "1/2"),
        ("-①^(7/3) + 4①^(1/2) - 1/2①^-2", "-①^(7/3)+4①^(1/2)-1/2①^-2"),
    ],
)
@pytest.mark.parametrize("ascii_mode", [False, True])
def test_format_numeral_of_fixed_values(text, written, ascii_mode):
    x = parse_numeral(text)
    want = written.replace("①", "G1") if ascii_mode else written
    assert format_numeral(x, ascii_mode=ascii_mode) == want == oracles.reference_format_numeral(x, ascii_mode)
    assert parse_numeral(format_numeral(x, ascii_mode=ascii_mode)) == x
    assert format_numeral(-GROSSONE, ascii_mode=ascii_mode) == ("-G1" if ascii_mode else "-①")
