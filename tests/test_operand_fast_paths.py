"""Plain-int and one-term operands of ``+``, ``-`` and comparisons, against the dict oracle.

A plain int is read as its own term.  Sums with it and with one-term
operands must agree with ``oracles.poly_add`` and keep every built entry
an int where it is integral.  Values built directly with Fraction-typed
integral entries hold them as ints too.
"""

from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from grossone.gnum import ZERO, GrossNumber, gross_term

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
@settings(max_examples=150)
@given(numbers, plain)
def test_plain_operands_add_and_subtract_like_the_oracle(x, n):
    check_sums(x, n)


@seed(2025)
@settings(max_examples=150)
@given(numbers, st.one_of(one_terms, numbers))
def test_one_term_and_general_operands_add_and_subtract_like_the_oracle(x, y):
    check_sums(x, y)


@seed(2026)
@settings(max_examples=150)
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
