"""The ordered-merge core against the naive oracles.

Term-walk comparison and merge addition are checked against dict
polynomials, the sweep set algebra against Python sets of ints and the
tail-set identities, and one-pass measurement validation and the sweep
composition against element-by-element models.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from grossone.errors import InvalidMeasurement
from grossone.gnum import GrossNumber, Sign, cmp, finite
from grossone.measure import (
    AffinePiece,
    Measurement,
    canonical_injection,
    canonical_measurement,
    transport,
)
from grossone.sets import (
    cardinality,
    contains,
    difference,
    intersect,
    interval,
    is_subset,
    union,
)

# ------------------------------------------------------------------ numerals

exponents = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=7)
polys = st.dictionaries(exponents, coefficients, max_size=5).map(
    lambda p: {e: c for e, c in p.items() if c != 0}
)


def number(poly: dict) -> GrossNumber:
    """Canonical value built directly from the terms, bypassing any merge."""
    return GrossNumber(tuple(sorted(poly.items(), reverse=True)))


def poly_sign(poly: dict) -> Sign:
    if not poly:
        return Sign.ZERO
    return Sign.POSITIVE if poly[max(poly)] > 0 else Sign.NEGATIVE


def negated(poly: dict) -> dict:
    return {e: -c for e, c in poly.items()}


@given(polys, polys)
def test_cmp_is_the_sign_of_the_difference(p, q):
    x, y = number(p), number(q)
    want = poly_sign(oracles.poly_add(p, negated(q)))
    assert cmp(x, y) == want
    assert (x < y, x <= y, x > y, x >= y) == (
        want == Sign.NEGATIVE,
        want != Sign.POSITIVE,
        want == Sign.POSITIVE,
        want != Sign.NEGATIVE,
    )


@given(polys, polys)
def test_merge_add_and_sub_match_the_dict_sum(p, q):
    x, y = number(p), number(q)
    assert oracles.poly_equal(oracles.poly_add(p, q), x + y)
    assert oracles.poly_equal(oracles.poly_add(p, negated(q)), x - y)


@given(polys, st.integers(-20, 20))
def test_mixed_int_operands(p, k):
    x, const = number(p), {Fraction(0): Fraction(k)} if k else {}
    assert oracles.poly_equal(oracles.poly_add(p, const), k + x)
    assert oracles.poly_equal(oracles.poly_add(const, negated(p)), k - x)
    assert cmp(x, finite(k)) == poly_sign(oracles.poly_add(p, negated(const)))


# ---------------------------------------------------------------------- sets

finite_sets = st.sets(st.integers(-20, 60), max_size=40).map(oracles.set_from_model)


@given(finite_sets, finite_sets, st.lists(st.integers(-25, 65), max_size=10))
def test_sweep_algebra_matches_the_int_model(a, b, probes):
    ma, mb = oracles.set_model(a), oracles.set_model(b)
    assert oracles.set_model(intersect(a, b)) == ma & mb
    assert oracles.set_model(difference(a, b)) == ma - mb
    assert oracles.set_model(union(a, b)) == ma | mb
    assert is_subset(a, b) == (ma <= mb)
    assert [contains(a, v) for v in probes] == [v in ma for v in probes]


@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_identities_on_sets_with_an_infinite_tail(seed_a, seed_b):
    a = oracles.random_symbolic_set(Random(seed_a))
    b = oracles.random_symbolic_set(Random(seed_b))
    both, either = intersect(a, b), union(a, b)
    card = lambda s: oracles.poly_from(cardinality(s))  # noqa: E731
    assert oracles.poly_add(card(either), card(both)) == oracles.poly_add(card(a), card(b))
    assert union(difference(a, b), both) == a
    assert is_subset(both, a) and is_subset(a, either)
    assert contains(a, a.parts[-1].hi) and not contains(a, a.parts[-1].hi + 1)


# -------------------------------------------------------------- measurements


@st.composite
def piece_lists(draw):
    """Pieces tiling [1..mu] with small offsets, and a target that may not fit."""
    mu = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(2, mu), max_size=3))) if mu > 1 else []
    bounds = list(zip([1] + cuts, [c - 1 for c in cuts] + [mu]))
    offsets = draw(st.lists(st.integers(-6, 6), min_size=len(bounds), max_size=len(bounds)))
    images = set()
    for (lo, hi), off in zip(bounds, offsets):
        images.update(range(lo + off, hi + off + 1))
    target = set(draw(st.sampled_from([images, images | {30}, images - {min(images)}])))
    return mu, bounds, offsets, target


@given(piece_lists())
def test_validation_accepts_exactly_the_bijections(case):
    mu, bounds, offsets, target = case
    pieces = tuple(AffinePiece(interval(lo, hi), off) for (lo, hi), off in zip(bounds, offsets))
    images = [set(range(lo + off, hi + off + 1)) for (lo, hi), off in zip(bounds, offsets)]
    covered = set().union(*images)
    valid = sum(map(len, images)) == len(covered) and covered == target
    target_set = oracles.set_from_model(target)
    if valid:
        m = Measurement(mu=finite(mu), pieces=pieces, target=target_set)
        assert [m.apply(k) for k in range(1, mu + 1)] == [
            k + off for (lo, hi), off in zip(bounds, offsets) for k in range(lo, hi + 1)
        ]
    else:
        with pytest.raises(InvalidMeasurement):
            Measurement(mu=finite(mu), pieces=pieces, target=target_set)


@given(finite_sets.filter(lambda s: len(oracles.set_model(s)) >= 2))
def test_validation_rejects_overlap_gap_and_miscover(s):
    m = canonical_measurement(s)
    mu = m.mu.as_int()
    base = s.parts[0].lo
    overlapping = (
        AffinePiece(interval(1, 1), base - 1),
        AffinePiece(interval(2, mu), base - 2),
    )
    with pytest.raises(InvalidMeasurement, match="disjoint"):
        Measurement(mu=m.mu, pieces=overlapping, target=s)
    gapped = (AffinePiece(interval(1, 1), base - 1), AffinePiece(interval(3, mu + 1), base - 2))
    with pytest.raises(InvalidMeasurement, match="contiguous"):
        Measurement(mu=m.mu, pieces=gapped, target=s)
    wider = union(s, oracles.set_from_model({max(oracles.set_model(s)) + 2}))
    with pytest.raises(InvalidMeasurement, match="cover"):
        Measurement(mu=m.mu, pieces=m.pieces, target=wider)


@given(finite_sets.filter(lambda s: not s.is_empty), st.randoms(use_true_random=False))
def test_transport_matches_pointwise_composition(s, rng):
    m = canonical_measurement(s)
    # Cut every part of the target in two and send the pieces, shuffled,
    # to disjoint far-away blocks.
    chunks = []
    for part in s.parts:
        lo, hi = part.lo.as_int(), part.hi.as_int()
        cut = rng.randint(lo, hi)
        chunks += [(lo, cut), (cut + 1, hi)] if cut < hi else [(lo, hi)]
    slots = rng.sample(range(len(chunks)), len(chunks))
    offsets = [1000 * (slot + 1) - lo for (lo, _), slot in zip(chunks, slots)]
    bijection = [AffinePiece(interval(lo, hi), off) for (lo, hi), off in zip(chunks, offsets)]
    via = {x: x + off for (lo, hi), off in zip(chunks, offsets) for x in range(lo, hi + 1)}
    moved = transport(m, bijection)
    indexes = range(1, m.mu.as_int() + 1)
    assert [moved.apply(k).as_int() for k in indexes] == [via[m.apply(k).as_int()] for k in indexes]


@given(finite_sets.filter(lambda s: not s.is_empty), finite_sets.filter(lambda s: not s.is_empty))
def test_canonical_injection_matches_pointwise_routing(a, b):
    first, second = canonical_measurement(a), canonical_measurement(b)
    if first.mu > second.mu:
        first, second = second, first
    injection = canonical_injection(first, second)
    routed = {}
    for piece in injection:
        for x in range(piece.domain.lo.as_int(), piece.domain.hi.as_int() + 1):
            assert x not in routed
            routed[x] = (x + piece.offset).as_int()
    assert routed == {
        x: second.apply(first.invert(x)).as_int() for x in oracles.set_model(first.target)
    }
