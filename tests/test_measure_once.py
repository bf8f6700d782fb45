"""measure_in gates a set on the numerals of its written-out measurement.

A set is admitted exactly when every numeral of
``serialized_numerals(canonical_measurement(s))`` is expressible, and
then its measurement is that canonical one; otherwise the first numeral
in that order that is not expressible names the refusal.
"""

from random import Random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from grossone.errors import EmptySet, NotExpressible
from grossone.gnum import GROSSONE, GrossNumber
from grossone.measure import Measurement, canonical_measurement, serialized_numerals
from grossone.numeral_system import BoundedFinite, GrossBudget, Piraha, measure_in
from grossone.sets import EMPTY, interval, make_set, map_affine

systems = st.one_of(
    st.just(Piraha()),
    st.builds(BoundedFinite, st.integers(1, 4), st.integers(2, 16)),
    st.builds(GrossBudget, st.integers(1, 3), st.integers(1, 4), st.integers(1, 2)),
)

# Shifts that push offsets negative, past the finite, or leave the set in place.
offsets = st.one_of(
    st.integers(-400, 400),
    st.just(0),
    st.sampled_from([-GROSSONE, GROSSONE - 1, 2 * GROSSONE + 3, 1 - GROSSONE]),
)


@st.composite
def moved_sets(draw):
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["symbolic", "finite", "tiny"]))
    if kind == "symbolic":
        s = oracles.random_symbolic_set(rng)
    elif kind == "finite":
        s = oracles.random_finite_set(rng, 1, 1000)
    else:
        # Parts inside [1..3], so that the two-numeral system admits some.
        s = oracles.random_finite_set(rng, 1, 3, 2)
    if draw(st.booleans()):
        return s
    return map_affine(s, draw(st.sampled_from([1, -1])), draw(offsets))


def first_refused(sys_, m: Measurement):
    return next((v for v in serialized_numerals(m) if not sys_.can_express(v)), None)


@seed(1212)
@settings(max_examples=400)
@given(systems, moved_sets())
def test_measure_in_agrees_with_gating_the_built_measurement(sys_, s):
    m = canonical_measurement(s)
    refused = first_refused(sys_, m)
    if refused is None:
        got = measure_in(sys_, s)
        assert got == m and got.target is s
    else:
        with pytest.raises(NotExpressible) as info:
            measure_in(sys_, s)
        assert isinstance(info.value.value, GrossNumber)
        assert info.value.value == refused
        assert info.value.system_name == sys_.describe()


@pytest.mark.parametrize(
    "sys_, s",
    [
        (Piraha(), make_set([interval(1, 2)])),
        (Piraha(), make_set([interval(2, 2)])),
        (BoundedFinite(2, 10), make_set([interval(-40, -30), interval(5, 9)])),
        (GrossBudget(2, 3, 1), make_set([interval(1, 5), interval(9, GROSSONE - 1)])),
    ],
)
def test_admitted_sets_get_the_canonical_measurement(sys_, s):
    assert first_refused(sys_, canonical_measurement(s)) is None
    assert measure_in(sys_, s) == canonical_measurement(s)


@pytest.mark.parametrize("sys_", [Piraha(), BoundedFinite(1, 2), GrossBudget(1, 1, 1)])
def test_the_empty_set_has_no_measurement_in_any_system(sys_):
    # Its count 0 is not writable in the two-numeral system; the emptiness
    # is still what is reported.
    with pytest.raises(EmptySet):
        measure_in(sys_, EMPTY)


@pytest.mark.parametrize(
    "sys_, parts, value",
    [
        (Piraha(), [(1, 3)], 3),
        (Piraha(), [(3, 3)], 3),
        (BoundedFinite(1, 10), [(1, 5), (20, 21)], 14),
        (GrossBudget(2, 2, 1), [(1, 5), (200, 201)], 194),
    ],
)
def test_a_refused_set_names_its_first_unwritable_numeral(sys_, parts, value):
    s = make_set(interval(lo, hi) for lo, hi in parts)
    with pytest.raises(NotExpressible) as info:
        measure_in(sys_, s)
    assert info.value.value == value
