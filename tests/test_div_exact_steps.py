"""``div_exact`` divides in steps that each cost the divisor's length.

The remainder is held as a dict of its terms with a heap of their keys, so
a long quotient no longer re-merges the whole remainder at every step.
Quotients are checked against products made by ``oracles.poly_mul`` and
refusals against ``oracles.reference_long_division``, which re-merges the
whole remainder at every step as the division once did.
"""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.errors import DivideByZero, NotExact, _shown
from grossone.gnum import ZERO, GrossNumber, div_exact

# Exponents spread widely, so that the remainder has far tails and gaps.
exponents = st.one_of(st.integers(-300, 300), st.fractions(-40, 40, max_denominator=6))
coefficients = st.one_of(
    st.integers(-(10**12), 10**12).filter(bool),
    st.fractions(-30, 30, max_denominator=20).filter(bool),
)


def numbers(min_terms: int, max_terms: int):
    """Gross-numbers of min_terms to max_terms distinct exponents."""
    return st.lists(
        st.tuples(exponents, coefficients), min_size=min_terms, max_size=max_terms, unique_by=lambda t: t[0]
    ).map(GrossNumber.from_terms)


def from_poly(p: dict) -> GrossNumber:
    return GrossNumber.from_terms(p.items())


@seed(26101)
@given(numbers(1, 60), numbers(1, 8))
def test_a_product_divides_back_into_either_factor(x, y):
    product = from_poly(oracles.poly_mul(oracles.poly_from(x), oracles.poly_from(y)))
    assert div_exact(product, y) == x
    assert div_exact(product, x) == y


@seed(26102)
@given(numbers(0, 20), numbers(1, 6), st.none() | st.tuples(exponents, coefficients))
def test_a_quotient_or_refusal_is_that_of_whole_remainder_long_division(a, y, extra):
    # A multiple of y, or one with a term added, which y mostly does not divide.
    x = a * y + (0 if extra is None else GrossNumber.from_terms([extra]))
    want = oracles.reference_long_division(oracles.poly_from(x), oracles.poly_from(y))
    if want is None:
        with pytest.raises(NotExact, match=f"^{re.escape(_shown(y))} does not divide "):
            div_exact(x, y)
    else:
        got = div_exact(x, y)
        assert oracles.poly_equal(want, got)
        assert all(type(e) is int or e.denominator != 1 for e, _ in got.terms)
        assert all(type(c) is int or c.denominator != 1 for _, c in got.terms)


def test_terms_that_cancel_and_return_are_cleared_once():
    # (①^2 - 1)(①^2 + 1) = ①^4 - 1: the remainder's ①^2 term cancels to
    # nothing and comes back, and its stale key must not clear it twice.
    x = GrossNumber.from_terms([(2, 1), (0, -1)])
    y = GrossNumber.from_terms([(2, 1), (0, 1)])
    product = x * y
    assert product == GrossNumber.from_terms([(4, 1), (0, -1)])
    assert div_exact(product, y) == x
    assert div_exact(product, x) == y
    assert div_exact(ZERO, y) == ZERO
    with pytest.raises(DivideByZero):
        div_exact(x, ZERO)


def test_a_long_quotient_with_a_far_tail_divides_in_bounded_time():
    # A 4,000-term numeral times a 3-term divisor whose last term lies far
    # below: 12,000 product terms, and every quotient step reaches the tail.
    # Re-merging the whole remainder at each step took about 1.4 s here.
    x = GrossNumber.from_terms([(3 * i, i % 7 + 1) for i in range(4000)])
    y = GrossNumber.from_terms([(2, 1), (1, Fraction(2, 3)), (-100_000, 1)])
    product = x * y
    assert len(product.terms) == 12_000
    start = time.perf_counter()
    quotient = div_exact(product, y)
    elapsed = time.perf_counter() - start
    assert quotient == x
    assert elapsed < 0.5, f"{elapsed:.2f} s"
