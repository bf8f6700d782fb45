"""Numbers hold the keyed forms that products and exact quotients compute.

A form ``(S, D, keyed)`` holds each term ``(e, c)`` of a number as the int
pair ``(e * S, c * D)``.  ``x * y`` of two numbers of two terms or more
holds its product's form and each operand's form at their common scale;
``div_exact`` reads held forms, rescales one held at a smaller scale, and
holds the forms it builds.  A form is a derived cache, no field: every
result, its entry types, ``repr``, hash and pickle, is the same as from
numbers that hold none, and as ``oracles.reference_terms`` and
``oracles.reference_long_division`` give.  A number of no term or one term
never holds a form, so the shared small-int numbers are never written.

No property here fixes ``max_examples``, so the ``deep`` Hypothesis
profile (``--hypothesis-profile=deep``) runs each on ten times the examples.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone import gnum
from grossone.errors import NotExact
from grossone.gnum import ONE, ZERO, GrossNumber, div_exact, gross_term, parse_numeral


def held(x: GrossNumber):
    """The form ``x`` holds, or None."""
    return getattr(x, "_form", None)


def fresh(x: GrossNumber) -> GrossNumber:
    """An equal number that holds no form: the public constructor sets none."""
    copied = GrossNumber(x.terms)
    assert held(copied) is None
    return copied


def assert_same_terms(got: tuple, want: tuple):
    """Equal term for term, and equal in type: an int is never an integral Fraction."""
    assert got == want
    for (e, c), (we, wc) in zip(got, want):
        assert (type(e), type(c)) == (type(we), type(wc)), (got, want)
        for entry in (e, c):
            assert type(entry) is (int if Fraction(entry).denominator == 1 else Fraction), got


def assert_decodes(x: GrossNumber):
    """A form held by ``x`` gives back its terms, ``k / S`` and ``c / D``, entry by entry."""
    form = held(x)
    if form is None:
        return
    assert len(x.terms) > 1
    scale, d, keyed = form
    assert type(scale) is int and type(d) is int and scale > 0 and d > 0
    assert all(type(k) is int and type(c) is int for k, c in keyed)
    decoded = tuple((Fraction(k, scale), Fraction(c, d)) for k, c in keyed)
    assert_same_terms(tuple((oracles._exact(e), oracles._exact(c)) for e, c in decoded), x.terms)


def assert_same_number(got: GrossNumber, want: GrossNumber):
    """Equal in terms, entry types, ``repr``, hash and pickle."""
    assert_same_terms(got.terms, want.terms)
    assert repr(got) == repr(want) and hash(got) == hash(want)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert_same_terms(pickle.loads(pickle.dumps(got, protocol)).terms, want.terms)


def product_terms(x: GrossNumber, y: GrossNumber) -> tuple:
    return oracles.reference_terms((e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms)


# Exponents on halves, thirds and fifths, so two numbers often key on
# different scales; coefficients with small and large denominators.
exponents = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([Fraction(k, d) for d in (2, 3, 5) for k in range(-9, 10) if k % d]),
)
coefficients = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(-50, 50, max_denominator=40),
    st.builds(Fraction, st.integers(-(10**9), 10**9), st.sampled_from([7, 999983, 2**61 - 1])),
).filter(bool)


def numbers(min_terms: int, max_terms: int):
    """Gross-numbers of min_terms to max_terms distinct exponents, holding no form."""
    return st.lists(
        st.tuples(exponents, coefficients), min_size=min_terms, max_size=max_terms, unique_by=lambda t: t[0]
    ).map(GrossNumber.from_terms).filter(lambda x: len(x.terms) >= min_terms)


# ---------------------------------------------------------------- what is held


@seed(40001)
@given(numbers(2, 8), numbers(2, 8))
def test_products_and_quotients_hold_forms_that_decode_to_their_terms(x, y):
    assert held(x) is None and held(y) is None
    product = x * y
    assert held(x) is not None and held(y) is not None and held(product) is not None
    # The operands' forms are at the product's scale.
    assert held(x)[0] == held(y)[0] == held(product)[0]
    quotient = div_exact(product, y)
    for number in (x, y, product, quotient):
        assert_decodes(number)
    assert_same_terms(quotient.terms, x.terms)


@seed(40002)
@given(numbers(0, 6), numbers(0, 6), st.integers(0, 4))
def test_every_number_a_result_touched_decodes(x, y, n):
    for number in (x * y, x + y, x - y, x**n):
        assert_decodes(number)
    for number in (x, y):
        assert_decodes(number)
        if len(number.terms) < 2:
            assert held(number) is None


# ---------------------------------------------------------------- the same results


@seed(40003)
@given(numbers(1, 7), numbers(2, 7), numbers(2, 5))
def test_results_are_the_same_with_and_without_held_forms(x, y, z):
    cold_x, cold_y = fresh(x), fresh(y)
    # Warm x and y up at the scales they share with z, then use those forms.
    for operand in (x, y):
        assert_decodes(operand * z)
    product, cold_product = x * y, cold_x * cold_y
    assert_same_number(product, cold_product)
    assert_same_terms(product.terms, product_terms(x, y))
    for quotient in (div_exact(product, y), div_exact(fresh(product), y), div_exact(product, cold_y)):
        assert_same_number(quotient, cold_x)
    # A quotient with no finite form is refused with and without held forms.
    dividend = product + z
    want = oracles.reference_long_division(oracles.poly_from(dividend), oracles.poly_from(y))
    for divisor in (y, fresh(y)):
        if want is None:
            with pytest.raises(NotExact):
                div_exact(dividend, divisor)
        else:
            assert_same_terms(div_exact(dividend, divisor).terms, oracles.reference_terms(want.items()))


@seed(40004)
@given(numbers(1, 4), st.integers(0, 5))
def test_powers_are_the_same_with_and_without_held_forms(x, n):
    cold = fresh(x)
    assert_decodes(x * x)
    power = x**n
    assert_same_number(power, cold**n)
    want = {Fraction(0): Fraction(1)}
    for _ in range(n):
        want = oracles.poly_mul(want, oracles.poly_from(x))
    assert oracles.poly_equal(want, power)
    assert_decodes(x)
    assert_decodes(power)


def test_a_form_held_at_one_scale_is_used_at_a_larger_one():
    x, z, y = parse_numeral("3G1^(1/2) + 1/7"), parse_numeral("G1 - 2"), parse_numeral("G1^(1/3) + 5")
    cold_x, cold_y = fresh(x), fresh(y)
    assert_decodes(x * z)
    assert held(x)[:2] == (2, 7)
    product = x * y
    assert held(x)[0] == held(y)[0] == held(product)[0] == 6
    assert_same_number(product, cold_x * cold_y)
    assert_same_terms(product.terms, product_terms(x, y))
    # The divisor holds its form at scale 6, a dividend read fresh keys at 30.
    w = parse_numeral("G1^(1/5) - 1/3")
    dividend = fresh(product) * w
    assert held(dividend)[0] == 30
    assert held(fresh(y)) is None
    assert_same_number(div_exact(dividend, y), fresh(x) * fresh(w))
    assert held(y)[0] == 30
    for number in (x, y, w, product, dividend):
        assert_decodes(number)


# ---------------------------------------------------------------- shared numbers


def test_the_shared_small_ints_never_hold_a_form():
    x = parse_numeral("3G1^(1/2) - 1/7 + 2G1^-1")
    results = [x * 0, 0 * x, x * ZERO, ZERO * x, x * 1, x * ONE, x * 7, div_exact(x, 1), div_exact(x, ONE),
               div_exact(x, 7), div_exact(x * 7, 7), div_exact(ZERO, x), div_exact(7, x * 0 + 7), x**0, x**1]
    assert results[0] == results[1] == results[2] == results[3] == 0
    assert div_exact(x * 7, 7) == div_exact(x, 1) == x
    assert all(held(n) is None for n in gnum._SMALL_INTS)
    one_term = gross_term(Fraction(3, 2), Fraction(1, 3))
    assert div_exact(x * one_term, one_term) == x
    assert held(one_term) is None


def test_copies_and_pickles_of_a_number_that_holds_a_form_are_equal():
    x, y = parse_numeral("3G1^(1/2) - 1/7"), parse_numeral("G1^(2/3) + 5")
    product = x * y
    assert held(product) is not None
    copies = [copy.copy(product), copy.deepcopy(product)]
    copies += [pickle.loads(pickle.dumps(product, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is GrossNumber and copied == product
        assert_same_number(copied, product)
        # Through the constructor: a copy holds no form until it is used.
        assert held(copied) is None
        assert_same_number(div_exact(copied, y), x)
