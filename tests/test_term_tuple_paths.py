"""Products and exact quotients on term tuples, against the naive oracle.

A product with a one-term factor scales the other factor's terms with no
merge or sort, and long division subtracts each quotient term times the
divisor's tail from a tuple remainder.  The values here are shaped like
the benchmark's numerals: one to six terms, integral, fractional and
negative exponents, coefficients of up to twelve digits, some fractional.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from grossone.errors import NotExact
from grossone.gnum import GrossNumber, div_exact, gross_term, mul

EXPONENTS = sorted(
    {Fraction(e) for e in range(-3, 5)} | {Fraction(s * n, d) for s in (-1, 1) for n in (1, 5) for d in (2, 3)}
)
COEFFICIENTS = st.builds(
    lambda n, d, negative: Fraction(-n if negative else n, d),
    st.integers(1, 10**12 - 1),
    st.sampled_from([1, 1, 1, 2, 3, 7, 999]),
    st.booleans(),
)


def numerals(least: int = 1, most: int = 6):
    """A value of ``least`` to ``most`` terms, built through the checked constructor."""
    return st.lists(st.sampled_from(EXPONENTS), min_size=least, max_size=most, unique=True).flatmap(
        lambda exps: st.lists(COEFFICIENTS, min_size=len(exps), max_size=len(exps)).map(
            lambda coeffs: GrossNumber.from_terms(zip(exps, coeffs))
        )
    )


def assert_canonical(x: GrossNumber):
    """Descending exponents, no zero coefficient, each entry an int exactly when integral."""
    assert [e for e, _ in x.terms] == sorted({e for e, _ in x.terms}, reverse=True)
    for exponent, coefficient in x.terms:
        assert coefficient != 0
        for value in (exponent, coefficient):
            assert type(value) is (int if value.denominator == 1 else Fraction)


@seed(1601)
@settings(max_examples=150)
@given(numerals(), numerals())
def test_products_agree_with_the_oracle(x, y):
    product = mul(x, y)
    assert oracles.poly_equal(oracles.poly_mul(oracles.poly_from(x), oracles.poly_from(y)), product)
    assert_canonical(product)


@seed(1602)
@given(numerals(), numerals(1, 1))
def test_one_term_factors_on_either_side(x, term):
    want = oracles.poly_mul(oracles.poly_from(x), oracles.poly_from(term))
    assert oracles.poly_equal(want, mul(x, term))
    assert oracles.poly_equal(want, mul(term, x))
    assert_canonical(mul(term, x))


@seed(1603)
@given(numerals(2, 6))
def test_products_that_cancel(x):
    # (x + t)(x - t) = x*x - t*t for the leading term t cancels the cross terms.
    t = GrossNumber(x.terms[:1])
    rest = GrossNumber(x.terms[1:])
    product = mul(rest + t, rest - t)
    assert oracles.poly_equal(oracles.poly_mul(oracles.poly_from(rest + t), oracles.poly_from(rest - t)), product)
    assert product == mul(rest, rest) - mul(t, t)
    assert_canonical(product)


def test_one_term_products_normalise_entries():
    half = gross_term(Fraction(2, 3), Fraction(1, 2))
    product = mul(half, gross_term(Fraction(3, 2), Fraction(1, 2)))
    assert product.terms == ((1, 1),)
    assert_canonical(product)


@seed(1604)
@settings(max_examples=150)
@given(numerals(), numerals())
def test_quotients_undo_products(x, y):
    quotient = div_exact(mul(x, y), y)
    assert quotient == x
    assert_canonical(quotient)


@seed(1605)
@given(numerals(), numerals(2, 6), st.sampled_from([1, Fraction(1, 2), 3]), COEFFICIENTS)
def test_a_term_below_the_product_leaves_a_remainder(x, y, gap, coefficient):
    product = mul(x, y)
    below = gross_term(coefficient, product.terms[-1][0] - gap)
    with pytest.raises(NotExact):
        div_exact(product + below, y)
