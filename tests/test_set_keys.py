"""The set sweeps compare endpoints by order keys, and every set holds the right keys.

``sets._key`` turns a gross-integer into a flat tuple whose order is the
number's order and whose last entry is the finite part, so that the key of
``y + 1`` is the key of ``y`` with its last entry one larger.  On random
gross-integers (fractional and several positive exponents, Fraction
coefficients on them, negatives and zero) key order and equality must be
the numbers' order and equality.  Each set must hold the keys of its parts'
endpoints, as the key function gives them: the sets the sweeps build, the
sets the checking constructor builds and sets read back from a pickle.  The
sweeps' results must agree with GrossNumber comparisons of the endpoints,
and the constructor must refuse, on keys, what it refused on numbers.
"""

import pickle
from fractions import Fraction
from random import Random

from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.errors import InvalidArgument
from grossone.gnum import GROSSONE, GrossNumber, gross_term
from grossone.sets import (
    EMPTY,
    IntervalSet,
    _key,
    contains,
    difference,
    intersect,
    interval,
    is_subset,
    make_set,
    parse_set_expression,
    union,
)

EXPONENTS = [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2, 3]
COEFFICIENTS = [1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 4), 7]


def random_gross_integer(rng: Random) -> GrossNumber:
    """A gross-integer: a few terms on positive exponents with rational coefficients, and an int finite part."""
    x = GrossNumber.from_terms([(0, rng.randint(-4, 4))])
    for exponent in rng.sample(EXPONENTS, rng.randint(0, 3)):
        x = x + gross_term(rng.choice(COEFFICIENTS), exponent)
    return x


def moved(key: tuple, step: int) -> tuple:
    return key[:-1] + (key[-1] + step,)


@seed(27001)
@given(st.integers(0, 2**32 - 1))
def test_key_order_and_equality_are_the_numbers(n):
    rng = Random(n)
    values = [random_gross_integer(rng) for _ in range(6)]
    # Near neighbours share every term but the last, where the order is decided.
    values += [x + rng.randint(-2, 2) for x in values[:3]]
    for x in values:
        for y in values:
            assert (_key(x) < _key(y)) == (x < y), (x, y)
            assert (_key(x) <= _key(y)) == (x <= y), (x, y)
            assert (_key(x) == _key(y)) == (x == y), (x, y)


@seed(27002)
@given(st.integers(0, 2**32 - 1))
def test_the_key_of_a_neighbour_moves_the_last_entry(n):
    x = random_gross_integer(Random(n))
    assert _key(x + 1) == moved(_key(x), 1)
    assert _key(x - 1) == moved(_key(x), -1)


def test_fixed_keys():
    assert _key(GrossNumber()) == (0, 0)
    assert _key(GrossNumber.from_terms([(0, -7)])) == (0, -7)
    assert _key(GROSSONE - 1) == (1, 1, 1, 0, -1)
    assert _key(-2 * GROSSONE**2 + gross_term(Fraction(1, 2), Fraction(1, 2))) == (
        -1, -2, -2, 1, Fraction(1, 2), Fraction(1, 2), 0, 0,
    )


# ---------------------------------------------------------------- the keys a set holds


def random_set(rng: Random) -> IntervalSet:
    """A set whose parts sit near a few symbolic and finite centres, so that they touch, overlap and nest."""
    centres = [GrossNumber()] + [random_gross_integer(rng) for _ in range(2)]
    parts = []
    for _ in range(rng.randint(0, 6)):
        lo = rng.choice(centres) + rng.randint(-6, 6)
        parts.append(interval(lo, lo + rng.randint(0, 4)))
    return make_set(parts)


def recomputed(s: IntervalSet) -> tuple[tuple, tuple]:
    return tuple(_key(p.lo) for p in s.parts), tuple(_key(p.hi) for p in s.parts)


def assert_holds_its_keys(s: IntervalSet):
    assert s._keys == recomputed(s)


def members(s: IntervalSet, x: GrossNumber) -> bool:
    return any(p.lo <= x <= p.hi for p in s.parts)


def probes(*sets):
    for s in sets:
        for part in s.parts:
            for end in (part.lo, part.hi):
                yield from (end - 1, end, end + 1)


@seed(27003)
@given(st.integers(0, 2**32 - 1))
def test_every_sweep_result_holds_the_keys_of_its_parts(n):
    rng = Random(n)
    a, b, c = random_set(rng), random_set(rng), random_set(rng)
    for s in (a, b, c):
        assert_holds_its_keys(s)
    results = [union(a, b), intersect(a, b), difference(a, b), union(b, EMPTY), difference(EMPTY, a)]
    for s in results:
        assert_holds_its_keys(s)
        assert IntervalSet(s.parts) == s  # canonical
    got_union, got_meet, got_difference = results[:3]
    for x in probes(a, b):
        assert contains(got_union, x) == members(got_union, x) == (members(a, x) or members(b, x))
        assert members(got_meet, x) == (members(a, x) and members(b, x))
        assert members(got_difference, x) == (members(a, x) and not members(b, x))
    assert is_subset(a, b) == all(members(b, x) for x in probes(a, b) if members(a, x))
    expected = oracles.reference_coalesce(a.parts + b.parts)
    assert [(p.lo, p.hi) for p in got_union.parts] == expected
    chained = parse_set_expression(f"({a}) | ({b}) \\ ({c}) | ({c}) & ({a}) \\ {{0}}")
    assert_holds_its_keys(chained)
    assert chained == difference(union(difference(union(a, b), c), intersect(c, a)), make_set([interval(0, 0)]))


@seed(27004)
@given(st.integers(0, 2**32 - 1))
def test_a_constructed_or_unpickled_set_holds_its_keys(n):
    rng = Random(n)
    a = random_set(rng)
    for s in (IntervalSet(a.parts), pickle.loads(pickle.dumps(a))):
        assert_holds_its_keys(s)
        for x in probes(a):
            assert contains(s, x) == members(s, x)


@seed(27005)
@given(st.integers(0, 2**32 - 1))
def test_the_constructor_refuses_on_keys_what_numbers_refuse(n):
    rng = Random(n)
    parts = list(random_set(rng).parts + random_set(rng).parts)
    rng.shuffle(parts)
    parts = parts[: rng.randint(0, len(parts))]
    if rng.random() < 0.5:
        parts.sort(key=lambda p: p.lo)
    canonical = all(q.lo > p.hi + 1 for p, q in zip(parts, parts[1:]))
    try:
        IntervalSet(tuple(parts))
    except InvalidArgument:
        assert not canonical
    else:
        assert canonical
