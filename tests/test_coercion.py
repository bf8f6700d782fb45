"""One way in for numbers: every value type coerces its numeric fields through ``finite``.

An int, an integral Fraction and the equal gross-number build the same
value; a non-integral rational where a gross-integer is needed raises the
module's typed error; a float is a TypeError everywhere.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.derived import Affine, DefinedNumeral, Pow, cmp_defined, format_defined
from grossone.errors import (
    InvalidArgument,
    InvalidMeasurement,
    NonIntegerEndpoint,
    NonIntegerOffset,
)
from grossone.geometry import RealInterval, halfplane_demo
from grossone.gnum import finite
from grossone.measure import AffinePiece, Measurement, canonical_measurement
from grossone.sets import (
    GrossInterval,
    IntervalSet,
    cardinality,
    contains,
    interval,
    is_final_segment,
    is_initial_segment,
    map_affine,
    union_initial_segments,
)

ONE_TO_THREE = IntervalSet((GrossInterval(1, 3),))
ONE_TO_FIVE = IntervalSet((GrossInterval(1, 5),))


def _defined(x):
    d = DefinedNumeral(Pow(2), x)
    return d, cmp_defined(d, 1), format_defined(d)


# name -> (a build taking the number under test, what 7/2 gives there).  The
# outcome is an exception type, a plain result, or None where any rational
# is accepted.
CASES = {
    "GrossInterval lo": (lambda x: GrossInterval(x, 5), NonIntegerEndpoint),
    "GrossInterval hi": (lambda x: GrossInterval(1, x), NonIntegerEndpoint),
    "interval": (lambda x: interval(x, 5), NonIntegerEndpoint),
    "AffinePiece": (lambda x: AffinePiece(GrossInterval(1, 2), x), NonIntegerOffset),
    "Measurement": (
        lambda x: Measurement(mu=x, pieces=(AffinePiece(GrossInterval(1, 3), 0),), target=ONE_TO_THREE),
        InvalidMeasurement,
    ),
    "RealInterval": (lambda x: RealInterval(x, 5), None),
    "map_affine": (lambda x: map_affine(ONE_TO_THREE, 1, x), NonIntegerOffset),
    "contains": (lambda x: contains(ONE_TO_FIVE, x), False),
    "in": (lambda x: x in ONE_TO_FIVE, False),
    "is_initial_segment": (lambda x: is_initial_segment(IntervalSet((GrossInterval(1, 2),)), x), NonIntegerEndpoint),
    "is_final_segment": (lambda x: is_final_segment(IntervalSet((GrossInterval(2, 3),)), x), NonIntegerOffset),
    "union_initial_segments": (union_initial_segments, NonIntegerEndpoint),
    "Affine a": (lambda x: Affine(x, 1), None),
    "Affine c": (lambda x: Affine(1, x), None),
    "DefinedNumeral": (_defined, InvalidArgument),
    "halfplane_demo a": (lambda x: halfplane_demo(x, 0), None),
    "halfplane_demo d": (lambda x: halfplane_demo(1, x), None),
    "halfplane_demo b": (lambda x: halfplane_demo(1, 0, b=x), None),
}


class Int(int):
    """An int subclass: ``finite`` reads it, as a bool, through the general path, into a plain int."""


def _same(results):
    first = results[0]
    for other in results[1:]:
        assert other == first
        assert repr(other) == repr(first)


@pytest.mark.parametrize("name", list(CASES))
def test_ints_fractions_and_gross_numbers_build_the_same_value(name):
    build, non_integral = CASES[name]
    _same([build(3), build(Fraction(3)), build(finite(3)), build(Int(3))])
    half = Fraction(7, 2)
    if non_integral is None:
        _same([build(half), build(finite(half))])
    elif isinstance(non_integral, type):
        for value in (half, finite(half)):
            with pytest.raises(non_integral):
                build(value)
    else:
        assert build(half) == build(finite(half)) == non_integral
    with pytest.raises(TypeError):
        build(3.0)


@seed(20261018)
@given(st.sets(st.integers(-40, 80), min_size=1, max_size=40))
def test_sets_of_int_parts_count_and_measure_like_the_int_model(values):
    runs = [(p.lo.as_int(), p.hi.as_int()) for p in oracles.set_from_model(values).parts]
    s = IntervalSet(tuple(GrossInterval(lo, hi) for lo, hi in runs))
    assert oracles.set_model(s) == values
    assert cardinality(s) == len(values)
    m = canonical_measurement(s)
    assert m.mu == len(values)
    assert [m.apply(k) for k in range(1, len(values) + 1)] == sorted(values)
    assert oracles.set_model(m.target) == values


def test_a_bool_or_an_int_subclass_becomes_a_plain_int_term():
    for value, terms in ((True, ((0, 1),)), (False, ()), (Int(5), ((0, 5),)), (Int(0), ())):
        x = finite(value)
        assert x.terms == terms and [type(c) for _, c in x.terms] == [int] * len(terms)
        assert str(x) == str(int(value))
