"""The set sweeps compare endpoints by order keys, and every set holds the right keys.

``gnum._key`` turns a gross-integer into a flat tuple whose order is the
number's order and whose last entry is the finite part, so that the key of
``y + 1`` is the key of ``y`` with its last entry one larger.  On random
gross-integers (fractional and several positive exponents, Fraction
coefficients on them, negatives and zero) key order and equality must be
the numbers' order and equality, and ``gnum._from_key`` must read a key,
moved or not, back as its number, each entry an int where integral.  Each
set must hold the keys of its parts' endpoints, as the key function gives
them: the sets the sweeps build, the sets the checking constructor builds
and sets read back from a pickle; and binding or deleting the check that
computes them later changes no set class's constructor.  The sweeps'
results must agree with GrossNumber comparisons of the endpoints, and the
constructor must refuse, on keys, what it refused on numbers.
``difference`` and ``is_subset``, whose gap ends are read back from keys,
must agree with an int model of sets whose ends lie near infinitely distant
centres, and ``cardinality`` and ``canonical_measurement``, which read
counts and plain ends from keys, with the GrossNumber walks in
``tests/oracles.py``.
"""

import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.errors import InvalidArgument
from grossone.gnum import GROSSONE, GrossNumber, _from_key, _key, gross_term, parse_numeral
from grossone.measure import canonical_measurement
from grossone.sets import (
    EMPTY,
    IntervalSet,
    _moved,
    cardinality,
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


# ---------------------------------------------------------------- numbers read back from keys


def assert_same_number(got, want: GrossNumber):
    """Equal term for term, each entry an int when integral and a Fraction otherwise."""
    assert type(got) is GrossNumber
    assert got.terms == want.terms
    for entry in (value for term in got.terms for value in term):
        assert type(entry) is (int if entry.denominator == 1 else Fraction), got.terms


positive_exponents = st.one_of(st.integers(1, 3), st.fractions(Fraction(1, 4), 3, max_denominator=4))
nonzero_coefficients = st.one_of(
    st.integers(-(10**12), 10**12), st.fractions(-5, 5, max_denominator=6), st.integers(-9, 9).map(Fraction)
).filter(bool)
# Zero and near-zero finite parts often, so that a step can cancel the finite part.
finite_parts = st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12))
gross_integers = st.builds(
    lambda terms, c0: GrossNumber.from_terms([*terms, (0, c0)]),
    st.lists(st.tuples(positive_exponents, nonzero_coefficients), max_size=4),
    finite_parts,
)


@seed(29001)
@given(gross_integers)
def test_a_key_reads_back_as_its_number(x):
    assert_same_number(_from_key(_key(x)), x)


@seed(29002)
@given(gross_integers, st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12)))
def test_a_moved_key_reads_back_as_the_moved_number(x, step):
    assert_same_number(_from_key(_moved(_key(x), step)), x + step)
    # Moved by minus its finite part, the number has none left.
    key = _key(x)
    assert_same_number(_from_key(_moved(key, -key[-1])), x - key[-1])


@pytest.mark.parametrize(
    "text",
    ["0", "7", "-7", "G1", "-G1", "-G1+3", "G1^2-G1", "-2G1^2+1/2G1^(1/2)", "-3/4G1^(3/2)+G1-5", "G1^(1/3)"],
)
def test_fixed_keys_read_back(text):
    x = parse_numeral(text)
    assert_same_number(_from_key(_key(x)), x)
    for step in (-1, 1):
        assert_same_number(_from_key(_moved(_key(x), step)), x + step)


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


@pytest.mark.parametrize("deleted", [False, True], ids=["bound", "deleted"])
def test_a_check_bound_or_deleted_later_changes_no_set_class(monkeypatch, deleted):
    class Named(IntervalSet):
        name: str = ""

    if deleted:
        monkeypatch.delattr(IntervalSet, "__post_init__")
    else:
        monkeypatch.setattr(IntervalSet, "__post_init__", lambda self: None)
    for s in (IntervalSet((interval(1, 2), interval(5, 6))), Named((interval(1, 2), interval(5, 6)), "s")):
        assert_holds_its_keys(s)
        assert union(s, s) == IntervalSet(s.parts)
    for cls in (IntervalSet, Named):
        with pytest.raises(InvalidArgument, match="unsorted"):
            cls((interval(5, 6), interval(1, 2)))
    # A subclass made meanwhile is refused against the check IntervalSet was created with.
    with pytest.raises(TypeError, match=r"^IntervalSet subclass Later may not replace IntervalSet\.__post_init__: "):

        class Later(IntervalSet):
            pass

    # Other class attributes bind and unbind as on any class.
    Named.label = "x"
    del Named.label
    assert not hasattr(Named, "label")


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


# ---------------------------------------------------------------- counts, gaps and runs read from keys

# Gross-integers infinitely far apart, in increasing order: a negatively
# infinite one, multi-term ones, fractional exponents and a Fraction
# coefficient.  Every endpoint below is one of them moved by at most
# SPREAD, so the map ``CENTRES[i] + k -> i * WIDTH + k`` keeps the order and
# the adjacency of the ends, and a set's image is a small finite int set.
CENTRES = [
    parse_numeral(t) for t in ("-G1^2", "-G1", "0", "G1^(1/2)", "G1", "1/2G1^(3/2)", "G1^2-G1", "G1^2")
]
SPREAD, WIDTH = 6, 40


def embedded(x: GrossNumber) -> int:
    for i, centre in enumerate(CENTRES):
        offset = x - centre
        if not offset.terms or (offset.terms[0][0] == 0 and abs(offset.terms[0][1]) <= 2 * SPREAD):
            return i * WIDTH + offset.as_int()
    raise AssertionError(f"{x} is near no centre")


def int_model(s: IntervalSet) -> set[int]:
    """The image of ``s`` under the embedding, as literal ints."""
    return oracles.set_model(make_set(interval(embedded(p.lo), embedded(p.hi)) for p in s.parts))


def random_wide_set(rng: Random) -> IntervalSet:
    """Parts whose ends sit near any two centres, so that parts and gaps span infinite stretches."""
    parts = []
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(len(CENTRES))
        j = rng.randrange(i, min(i + 3, len(CENTRES))) if rng.random() < 0.5 else i
        lo = CENTRES[i] + rng.randint(-SPREAD, SPREAD)
        hi = CENTRES[j] + rng.randint(-SPREAD, SPREAD)
        parts.append(interval(lo, hi) if lo <= hi else interval(hi, lo))
    return make_set(parts)


@seed(29003)
@given(st.integers(0, 2**32 - 1))
def test_difference_and_is_subset_agree_with_the_int_model(n):
    rng = Random(n)
    a, b = random_wide_set(rng), random_wide_set(rng)
    if rng.random() < 0.3:
        b = union(b, a) if rng.random() < 0.5 else difference(a, b)
    got = difference(a, b)
    assert_holds_its_keys(got)
    assert IntervalSet(got.parts) == got
    assert int_model(got) == int_model(a) - int_model(b)
    assert is_subset(a, b) == (int_model(a) <= int_model(b))
    # Every end, the gap ends read back from moved keys among them, passes the public check.
    for part in got.parts:
        for end in (part.lo, part.hi):
            assert_same_number(end, GrossNumber(end.terms))


@seed(29004)
@given(st.integers(0, 2**32 - 1))
def test_cardinality_and_canonical_runs_agree_with_the_references(n):
    s = random_wide_set(Random(n))
    count = cardinality(s)
    assert_same_number(count, GrossNumber.from_terms(oracles.reference_cardinality(s)))
    if all(len(lo) == 2 == len(hi) for lo, hi in zip(*s._keys)):
        assert count == len(oracles.set_model(s))
    if s.is_empty:
        return
    m = canonical_measurement(s)
    mu, runs = oracles.reference_canonical_runs(s)
    assert_same_number(m.mu, mu)
    assert m.mu == count
    got = [(p.domain.lo, p.domain.hi, p.offset) for p in m.pieces]
    assert got == runs
    for run in got:
        for value in run:
            assert_same_number(value, GrossNumber(value.terms))


@pytest.mark.parametrize(
    "a, b, gap",
    [
        # Gaps whose ends are infinite, one and two terms long.
        ("[-G1^2..G1^2]", "[-G1+2..G1-3]", "[-G1^2..-G1+1]|[G1-2..G1^2]"),
        ("[0..G1^2]", "[G1^2-G1..G1^2-G1+4]", "[0..G1^2-G1-1]|[G1^2-G1+5..G1^2]"),
        ("[G1^(1/2)-3..G1]", "{G1^(1/2)}", "[G1^(1/2)-3..G1^(1/2)-1]|[G1^(1/2)+1..G1]"),
        ("[-G1+1..5]", "[-G1+3..-1]", "[-G1+1..-G1+2]|[0..5]"),
    ],
)
def test_fixed_gaps_counts_and_runs(a, b, gap):
    a, b, gap = parse_set_expression(a), parse_set_expression(b), parse_set_expression(gap)
    got = difference(a, b)
    assert got == gap and not is_subset(a, b) and is_subset(got, a)
    for s in (a, b, got):
        assert_same_number(cardinality(s), GrossNumber.from_terms(oracles.reference_cardinality(s)))
        mu, runs = oracles.reference_canonical_runs(s)
        m = canonical_measurement(s)
        assert m.mu == mu and [(p.domain.lo, p.domain.hi, p.offset) for p in m.pieces] == runs
    assert cardinality(got) + cardinality(b) == cardinality(a)
