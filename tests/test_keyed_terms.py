"""The numeral core's term kernel agrees with a dict-and-sort reference.

``gnum`` merges and orders the terms of a parsed numeral, of a multi-term
product and of an exact quotient on int exponent keys ``e * L``, with L the
lcm of the exponents' denominators, however large L grows.
``oracles.reference_terms`` merges exact exponents in a dict and sorts them.
Every result must equal it term for term, with each entry an ``int`` when
integral and a ``Fraction`` otherwise.

No property here fixes ``max_examples``, so the ``deep`` Hypothesis
profile (``--hypothesis-profile=deep``) runs each on ten times the examples.
"""

import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone import gnum
from grossone.errors import NotExact
from grossone.gnum import GROSSONE, GrossNumber, classify, div_exact, gross_term, parse_numeral
from grossone.sets import EMPTY, cardinality, interval, make_set, map_affine


def assert_same_terms(got: tuple, want: tuple):
    """Equal term for term, and equal in type: an int is never an integral Fraction."""
    assert got == want
    for (e, c), (we, wc) in zip(got, want):
        assert (type(e), type(c)) == (type(we), type(wc)), (got, want)
        for entry in (e, c):
            assert type(entry) is (int if Fraction(entry).denominator == 1 else Fraction), got


def text_of(pairs) -> str:
    """The pairs written as one numeral, term by term in the given order."""
    out = []
    for e, c in pairs:
        c = Fraction(c)
        out.append(f"{'-' if c < 0 else '+'} {abs(c)}*G1^({e})")
    return " ".join(out) or "0"


# Exponents from a small pool, so that draws repeat and cancel; integral
# Fractions among them, which must come out as ints.
exponents = st.one_of(
    st.integers(-6, 6),
    st.fractions(-6, 6, max_denominator=12),
    st.integers(-3, 3).map(Fraction),
)
coefficients = st.one_of(
    st.integers(-(10**15), 10**15),
    st.fractions(-50, 50, max_denominator=30),
    st.integers(-9, 9).map(Fraction),
)
pair_lists = st.lists(st.tuples(exponents, coefficients), max_size=30)


@st.composite
def cancelling_pairs(draw):
    """Pairs shuffled among the negations of some of them, so that whole terms cancel."""
    pairs = draw(pair_lists)
    if not pairs:
        return pairs
    negated = [(e, -c) for e, c in draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))]
    return draw(st.permutations(pairs + negated))


def numbers(min_terms: int, max_terms: int):
    """Gross-numbers of min_terms to max_terms distinct exponents."""
    return st.lists(
        st.tuples(exponents, coefficients.filter(bool)),
        min_size=min_terms,
        max_size=max_terms,
        unique_by=lambda t: t[0],
    ).map(GrossNumber.from_terms).filter(lambda x: len(x.terms) >= min_terms)


# ---------------------------------------------------------------- merging


@seed(21001)
@given(st.one_of(pair_lists, cancelling_pairs()))
def test_from_terms_and_parsing_agree_with_the_reference(pairs):
    want = oracles.reference_terms(pairs)
    assert_same_terms(GrossNumber.from_terms(pairs).terms, want)
    assert_same_terms(GrossNumber.from_terms(reversed(pairs)).terms, want)
    assert_same_terms(parse_numeral(text_of(pairs)).terms, want)


def test_from_terms_still_refuses_a_float():
    with pytest.raises(TypeError):
        GrossNumber.from_terms([(0.5, 1)])
    with pytest.raises(TypeError):
        GrossNumber.from_terms([(1, 2.0)])


def test_integral_keys_and_sums_come_back_as_ints():
    half = Fraction(1, 2)
    x = GrossNumber.from_terms([(Fraction(3), half), (half, 1), (3, half), (Fraction(-4, 2), Fraction(6, 3))])
    assert_same_terms(x.terms, ((3, 1), (half, 1), (-2, 2)))
    assert_same_terms(parse_numeral("1/2*①^(6/2) + ①^(1/2) + 1/2①^3 - ①^(1/2)").terms, ((3, 1),))


@pytest.mark.parametrize("c", [Fraction(5, 3), Fraction(4), 7, 10**30])
@pytest.mark.parametrize("e", [Fraction(-5, 3), Fraction(2), 0, 3])
def test_terms_that_cancel_leave_no_term(e, c):
    assert_same_terms(GrossNumber.from_terms([(e, c), (1, 2), (e, -c)]).terms, ((1, 2),))
    text = text_of([(e, c), (Fraction(1, 7), 2), (e, -c)])
    assert_same_terms(parse_numeral(text).terms, ((Fraction(1, 7), 2),))
    # (①^e + c)(①^e - c): the cross terms cancel.
    x, y = GrossNumber.from_terms([(e, 1), (-9, c)]), GrossNumber.from_terms([(e, 1), (-9, -c)])
    want = oracles.reference_terms([(2 * e, 1), (-18, -c * c)])
    assert_same_terms((x * y).terms, want)
    assert_same_terms(div_exact(x * y, y).terms, x.terms)


# ---------------------------------------------------------------- products and quotients


@seed(21002)
@given(numbers(1, 40), numbers(1, 40))
def test_products_and_exact_quotients_agree_with_the_reference(x, y):
    product = x * y
    want = oracles.reference_terms((e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms)
    assert_same_terms(product.terms, want)
    assert oracles.poly_equal(oracles.poly_mul(oracles.poly_from(x), oracles.poly_from(y)), product)
    assert_same_terms(div_exact(product, y).terms, x.terms)
    assert_same_terms(div_exact(product, x).terms, y.terms)


@seed(21003)
@given(numbers(1, 12), numbers(2, 12), st.tuples(exponents, coefficients.filter(bool)))
def test_a_quotient_with_no_finite_form_is_refused(x, y, term):
    # x*y + t = q*y would make t = (q - x)*y, which has at least two terms.
    dividend = x * y + gross_term(term[1], term[0])
    if dividend == x * y:
        return
    with pytest.raises(NotExact):
        div_exact(dividend, y)


# ---------------------------------------------------------------- lcms past one word

PRIMES = [p for p in range(2, 400) if all(p % d for d in range(2, int(p**0.5) + 1))]


def prime_numeral(rng: Random, primes) -> GrossNumber:
    """A numeral with one exponent k/p for each prime p, k prime to p: L is their product."""
    return GrossNumber.from_terms(
        (Fraction(rng.choice([k for k in range(-2 * p, 2 * p) if k % p]), p), rng.randint(-99, 99) or 1)
        for p in primes
    )


@pytest.mark.parametrize("case", range(6))
def test_exponents_past_one_word_of_lcm_agree_with_the_reference(case):
    rng = Random(21004 + case)
    primes = rng.sample(PRIMES, 24)
    x = prime_numeral(rng, primes)
    y = prime_numeral(rng, rng.sample(PRIMES, 3))
    assert gnum._key_scale(x.terms) > sys.maxsize  # the product of 24 primes passes one word
    pairs = list(x.terms)
    rng.shuffle(pairs)
    assert_same_terms(parse_numeral(text_of(pairs)).terms, oracles.reference_terms(pairs))
    product = x * y
    want = oracles.reference_terms((e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms)
    assert_same_terms(product.terms, want)
    assert_same_terms(div_exact(product, y).terms, x.terms)


def test_two_operands_within_one_word_whose_joint_lcm_is_not():
    rng = Random(21005)
    x, y = prime_numeral(rng, PRIMES[:9]), prime_numeral(rng, PRIMES[9:18])
    assert gnum._key_scale(x.terms) <= sys.maxsize and gnum._key_scale(y.terms) <= sys.maxsize
    assert gnum._lcm(gnum._key_scale(x.terms), gnum._key_scale(y.terms)) > sys.maxsize
    product = x * y
    want = oracles.reference_terms((e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms)
    assert_same_terms(product.terms, want)
    assert_same_terms(div_exact(product, x).terms, y.terms)


@pytest.mark.parametrize("bits", [61, 62, 63, 64])
def test_an_lcm_at_the_word_limit(bits):
    # 2**62 is the largest power of two within one word; 2**63 passes it.
    tiny = Fraction(1, 2**bits)
    x = GrossNumber.from_terms([(1, 3), (tiny, -1), (-tiny, 2), (Fraction(-1, 2), 5)])
    y = GrossNumber.from_terms([(tiny, 1), (0, -7)])
    assert (gnum._key_scale(x.terms) > sys.maxsize) == (2**bits > sys.maxsize)
    want = oracles.reference_terms((e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms)
    assert_same_terms((x * y).terms, want)
    assert_same_terms(div_exact(x * y, y).terms, x.terms)
    assert_same_terms(parse_numeral(text_of(reversed(x.terms))).terms, x.terms)


# ---------------------------------------------------------------- cardinality


@st.composite
def sets(draw):
    """Finite sets around 0 and sets reaching ①, moved by int and ①-sized shifts."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["finite", "zero", "symbolic"]))
    if kind == "finite":
        s = oracles.random_finite_set(rng, -500, 500, 6)
    elif kind == "zero":
        # Parts ending or starting at 0, and a part that is {0}.
        lo = rng.randint(-20, 0)
        s = make_set([interval(lo, 0), interval(0, rng.randint(0, 3)), interval(5, 9)][: rng.randint(1, 3)])
    else:
        s = oracles.random_symbolic_set(rng)
    shift = draw(st.sampled_from([0, -7, GROSSONE, -GROSSONE, 2 * GROSSONE - 3, gross_term(1, 2)]))
    sign = draw(st.sampled_from([1, -1]))
    return map_affine(s, sign, shift)


@seed(21006)
@given(sets())
def test_cardinality_agrees_with_the_reference(s):
    assert_same_terms(cardinality(s).terms, oracles.reference_cardinality(s))
    if all(classify(p.lo).is_finite and classify(p.hi).is_finite for p in s.parts):
        assert cardinality(s) == len(oracles.set_model(s))


def test_cardinality_of_fixed_sets():
    assert_same_terms(cardinality(EMPTY).terms, ())
    assert_same_terms(cardinality(make_set([interval(0, 0)])).terms, ((0, 1),))
    assert_same_terms(cardinality(make_set([interval(-3, 0), interval(2, GROSSONE)])).terms, ((1, 1), (0, 3)))
    assert_same_terms(cardinality(make_set([interval(GROSSONE, 2 * GROSSONE)])).terms, ((1, 1), (0, 1)))
    assert_same_terms(cardinality(make_set([interval(-GROSSONE, GROSSONE - 1)])).terms, ((1, 2),))


# ---------------------------------------------------------------- int coefficients

# Coefficient denominators are products of these primes, within one word and
# past it, so that two coefficients rarely share a factor and the lcm that
# makes every coefficient of a numeral an int grows large.
BIG_PRIMES = [999983, 1000003, 2**31 - 1, 10**9 + 7, 2**61 - 1, 2**89 - 1]
# Exponents on a lattice of sixths, so that a refused division stops within a few dozen steps.
lattice_exponents = st.one_of(
    st.integers(-4, 4), st.sampled_from([Fraction(k, d) for d in (2, 3) for k in range(-8, 9) if k % d])
)
mixed_coefficients = st.one_of(
    st.integers(-(10**20), 10**20),
    st.builds(
        lambda n, p, q: Fraction(n, p * q),
        st.integers(-(10**15), 10**15),
        st.sampled_from(BIG_PRIMES),
        st.sampled_from([1, *BIG_PRIMES]),
    ),
    st.integers(-9, 9).map(Fraction),
).filter(bool)


def mixed_numbers(min_terms: int, max_terms: int):
    """Gross-numbers whose coefficients mix ints and Fractions of large coprime denominators."""
    return st.lists(
        st.tuples(lattice_exponents, mixed_coefficients), min_size=min_terms, max_size=max_terms, unique_by=lambda t: t[0]
    ).map(GrossNumber.from_terms).filter(lambda x: len(x.terms) >= min_terms)


@seed(30001)
@given(mixed_numbers(2, 8), mixed_numbers(2, 8))
def test_products_and_quotients_on_coprime_denominators_agree_with_the_references(x, y):
    product = x * y
    want = oracles.reference_terms((e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms)
    assert_same_terms(product.terms, want)
    assert_same_terms(div_exact(product, y).terms, x.terms)
    assert_same_terms(div_exact(product, x).terms, y.terms)
    # Most of these quotients have no finite form; the refusals must match too.
    for dividend, divisor in ((x, y), (y, x), (product + x, y), (product - y, x)):
        quotient = oracles.reference_long_division(oracles.poly_from(dividend), oracles.poly_from(divisor))
        if quotient is None:
            with pytest.raises(NotExact):
                div_exact(dividend, divisor)
        else:
            assert_same_terms(div_exact(dividend, divisor).terms, oracles.reference_terms(quotient.items()))


# ---------------------------------------------------------------- fractional exponents


def test_five_thousand_distinct_fractional_exponents_are_read_right():
    # 10007 is prime, so each k/10007 is fractional, and each appears spelt two ways.
    for k in range(1, 5001):
        e = Fraction(k, 10007)
        x = parse_numeral(f"{k}①^({k}/10007) - G1^(-{2 * k}/20014)")
        assert_same_terms(x.terms, ((e, k), (-e, -1)))
        assert_same_terms((x * x).terms, oracles.reference_terms([(2 * e, k * k), (0, -2 * k), (-2 * e, 1)]))
    # Every minus sign negates an exponent, in one match or read by characters.
    for text in ("①^(−5/3)", "①^−5/3", "G1^(-10/6)", "①^-5/3", "①^( − 5/3 )", "①^(−1.25)"):
        want = Fraction(-5, 4) if "." in text else Fraction(-5, 3)
        assert_same_terms(parse_numeral(text).terms, ((want, 1),))
    # A denominator past one machine word.
    assert_same_terms(parse_numeral(f"①^(1/{2**70})").terms, ((Fraction(1, 2**70), 1),))
