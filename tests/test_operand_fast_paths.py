"""Plain-int and one-term operands of ``+``, ``-`` and comparisons, against the dict oracle.

A plain int is read as its own term.  Sums with it and with one-term
operands must agree with ``oracles.poly_add`` and keep every built entry
an int where it is integral.  Values built directly with Fraction-typed
integral entries hold them as ints too.

Two one-term operands on the same exponent take the same paths as longer
ones, the one-pass merge in sums (``gnum._merge``) and the term walk in the
order operators (``gnum._ordering``); the properties from
``test_one_term_sums_and_differences_follow_the_oracle`` on check those
paths on one-term operands.  They fix no ``max_examples``, so the ``deep`` Hypothesis
profile (``--hypothesis-profile=deep``) runs each on ten times the examples.
The three properties before them run three times the loaded profile's
examples, so ``deep`` scales them too.
"""

import operator
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
import pytest
from grossone.gnum import ZERO, GrossNumber, _compare_terms, finite, gross_term

# Read when the module is collected, after the --hypothesis-profile option is applied.
THRICE = 3 * settings().max_examples

exponents = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
coefficients = st.one_of(
    st.integers(-(10**12), 10**12).filter(bool),
    st.fractions(-50, 50, max_denominator=9).filter(bool),
)
numbers = st.lists(st.tuples(exponents, coefficients), max_size=5).map(GrossNumber.from_terms)
one_terms = st.tuples(coefficients, exponents).map(lambda t: gross_term(*t))
# Finite operands of every plain kind: ints (zero included), bools and Fractions.
plain = st.one_of(
    st.integers(-(10**12), 10**12),
    st.just(0),
    st.booleans(),
    st.fractions(-50, 50, max_denominator=9),
)


def assert_normal(x: GrossNumber):
    for entry in (value for term in x.terms for value in term):
        assert type(entry) is (int if entry.denominator == 1 else Fraction), x.terms


def poly(value) -> dict:
    if isinstance(value, GrossNumber):
        return oracles.poly_from(value)
    return {0: Fraction(value)} if value else {}


def neg(p: dict) -> dict:
    return {e: -c for e, c in p.items()}


def sign_of(p: dict) -> int:
    if not p:
        return 0
    return 1 if p[max(p)] > 0 else -1


def check_sums(x: GrossNumber, y):
    px, py = poly(x), poly(y)
    for got, want in [
        (x + y, oracles.poly_add(px, py)),
        (y + x, oracles.poly_add(px, py)),
        (x - y, oracles.poly_add(px, neg(py))),
        (y - x, oracles.poly_add(py, neg(px))),
    ]:
        assert type(got) is GrossNumber
        assert oracles.poly_equal(want, got), (x, y)
        assert_normal(got)


@seed(2024)
@settings(max_examples=THRICE)
@given(numbers, plain)
def test_plain_operands_add_and_subtract_like_the_oracle(x, n):
    check_sums(x, n)


@seed(2025)
@settings(max_examples=THRICE)
@given(numbers, st.one_of(one_terms, numbers))
def test_one_term_and_general_operands_add_and_subtract_like_the_oracle(x, y):
    check_sums(x, y)


@seed(2026)
@settings(max_examples=THRICE)
@given(numbers, plain)
def test_comparisons_with_plain_operands_follow_the_sign_of_the_difference(x, n):
    s = sign_of(oracles.poly_add(poly(x), neg(poly(n))))
    assert (x < n, x <= n, x > n, x >= n, x == n, x != n) == (
        s < 0, s <= 0, s > 0, s >= 0, s == 0, s != 0
    )
    # The reflected forms, n on the left.
    assert (n < x, n <= x, n > x, n >= x, n == x) == (s > 0, s >= 0, s < 0, s <= 0, s == 0)


def fraction_typed(x: GrossNumber) -> GrossNumber:
    return GrossNumber(tuple((Fraction(e), Fraction(c)) for e, c in x.terms))


@seed(2027)
@given(numbers, plain)
def test_fraction_typed_entries_are_held_as_ints(x, n):
    twin = fraction_typed(x)
    assert twin == x
    for built in (twin, twin + ZERO, -twin, twin + 1, twin - n, n - twin, twin + twin):
        assert_normal(built)


def test_fraction_typed_twins_of_a_sum():
    twin = GrossNumber(((Fraction(1), Fraction(3)), (Fraction(0), Fraction(1))))
    assert twin.terms == ((1, 3), (0, 1))
    assert all(type(v) is int for term in twin.terms for v in term)
    half = GrossNumber(((Fraction(1, 2), Fraction(4)),))
    assert half.terms == ((Fraction(1, 2), 4),) and type(half.terms[0][1]) is int


# Two one-term operands, mostly on one exponent, with equal coefficients
# drawn often enough to reach the cancelling and the equal cases.
coefficient_pairs = st.one_of(st.tuples(coefficients, coefficients), coefficients.map(lambda c: (c, c)))
same_exponent_pairs = st.tuples(exponents, coefficient_pairs).map(
    lambda t: (gross_term(t[1][0], t[0]), gross_term(t[1][1], t[0]))
)
one_term_pairs = st.one_of(same_exponent_pairs, st.tuples(one_terms, one_terms))


@seed(2028)
@given(one_term_pairs)
def test_one_term_sums_and_differences_follow_the_oracle(pair):
    x, y = pair
    check_sums(x, y)
    (ex, cx), (ey, cy) = x.terms[0], y.terms[0]
    if ex == ey:
        for got, c in [(x + y, cx + cy), (x - y, cx - cy)]:
            assert got.terms == (((ex, c),) if c else ())


@pytest.mark.parametrize(
    "make",
    [
        lambda: finite(3) - 3,
        lambda: 3 - finite(3),
        lambda: finite(-4) + 4,
        lambda: finite(7) - finite(7),
        lambda: gross_term(2, 1) - gross_term(2, 1),
        lambda: gross_term(-5, Fraction(1, 2)) + gross_term(5, Fraction(1, 2)),
        lambda: gross_term(Fraction(2, 3), -1) - gross_term(Fraction(2, 3), -1),
    ],
)
def test_a_cancelling_one_term_pair_is_zero(make):
    got = make()
    assert got.terms == () and got == ZERO
    assert hash(got) == hash(0)


# n + r/d with 0 < r < d: never integral.
non_integral = st.tuples(st.integers(-50, 50), st.integers(2, 9), st.integers(1, 8)).map(
    lambda t: t[0] + Fraction(1 + t[2] % (t[1] - 1), t[1])
)


@seed(2029)
@given(exponents, non_integral, st.integers(-(10**12), 10**12))
def test_fractions_with_an_integral_sum_give_an_int(e, c, k):
    x, y = gross_term(c, e), gross_term(k - c, e)
    for got, want in [(x + y, k), (y + x, k), (gross_term(k + c, e) - x, k)]:
        assert got.terms == (((e, want),) if want else ())
        assert_normal(got)


ORDERS = (operator.lt, operator.le, operator.gt, operator.ge)


@seed(2030)
@given(
    st.one_of(
        one_term_pairs,
        st.tuples(one_terms, plain),
        st.tuples(plain, one_terms),
        st.tuples(plain.map(finite), plain),
        st.tuples(plain, plain.map(finite)),
        # Longer values that share all terms but one: only the fallback may decide.
        st.tuples(numbers, one_term_pairs).map(lambda t: (t[0] + t[1][0], t[0] + t[1][1])),
    )
)
def test_one_term_orderings_follow_the_sign_of_compare_terms(pair):
    x, y = pair
    s = _compare_terms(finite(x).terms, finite(y).terms)
    got = tuple(order(x, y) for order in ORDERS)
    assert got == (s < 0, s <= 0, s > 0, s >= 0), (x, y)
    assert all(type(v) is bool for v in got)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("other", [1.5, 0.0, "1", "①"])
def test_orderings_refuse_floats_and_strings(order, other):
    for x in (finite(2), GrossNumber(), gross_term(3, 2)):
        with pytest.raises(TypeError):
            order(x, other)
        with pytest.raises(TypeError):
            order(other, x)


@pytest.mark.parametrize("name", ["__lt__", "__le__", "__gt__", "__ge__"])
def test_ordering_methods_carry_their_own_names(name):
    method = getattr(GrossNumber, name)
    assert method.__name__ == name
    assert method.__qualname__ == f"GrossNumber.{name}"
    assert method.__module__ == "grossone.gnum"
