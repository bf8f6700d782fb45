"""Each built-in numeral system writes one range of plain integers.

``measure_in`` tests a plain-integer numeral against that range with two
int comparisons and sends every other numeral to ``can_express``.  The
range must agree with ``can_express`` on each side of both of its ends,
for the systems that descriptors name; a subclass, or a system whose
bound is too long to build, has no range and is gated by ``can_express``.
"""

from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.errors import NotExpressible
from grossone.gnum import GROSSONE, finite
from grossone.numeral_system import BoundedFinite, GrossBudget, Piraha, _int_range, measure_in, parse_system
from grossone.sets import interval, make_set

descriptors = st.one_of(
    st.just("piraha"),
    st.builds("finite:{}:{}".format, st.integers(1, 60), st.integers(2, 1000)),
    st.builds("gross:{}:{}:{}".format, st.integers(1, 4), st.integers(1, 60), st.integers(1, 3)),
)


@seed(26201)
@given(descriptors, st.integers(-3, 3))
def test_the_range_agrees_with_can_express_near_each_end(descriptor, step):
    system = parse_system(descriptor)
    lo, hi = _int_range(system)
    for n in (lo + step, hi + step, -hi + step, step):
        assert (lo <= n <= hi) == system.can_express(finite(n)), (descriptor, n)


@pytest.mark.parametrize(
    "system, bounds",
    [
        (Piraha(), (1, 2)),
        (BoundedFinite(3), (-999, 999)),
        (BoundedFinite(4, 2), (-15, 15)),
        (GrossBudget(2, 3, 1), (-999, 999)),
        (GrossBudget(1, 1, 9), (-9, 9)),
    ],
)
def test_the_ranges_of_each_kind(system, bounds):
    assert _int_range(system) == bounds


class OddOnly(BoundedFinite):
    """A subclass that writes fewer numerals than its base: odd ones only."""

    def can_express(self, x):
        return super().can_express(x) and finite(x).as_int() % 2 == 1


def test_a_subclass_and_an_unbuildable_bound_have_no_range():
    assert _int_range(OddOnly(2)) is None
    # The subclass keeps its base's fields, constructor and repr.
    assert repr(OddOnly(2)) == "OddOnly(digits=2, base=10)"
    assert _int_range(BoundedFinite(10**8, 10)) is None
    assert _int_range(GrossBudget(2, 10**6, 1)) is None


def test_without_a_range_measure_in_asks_can_express():
    # The count 1 is odd; the offset 2 of the one piece is not, though the
    # range of the base class holds it.
    with pytest.raises(NotExpressible, match="^2 is not expressible in finite:2:10$"):
        measure_in(OddOnly(2), make_set([interval(3, 3)]))
    assert measure_in(OddOnly(2), make_set([interval(1, 1)])).mu == 1
    with pytest.raises(NotExpressible, match="^① is not expressible in finite:100000000:10$"):
        measure_in(BoundedFinite(10**8, 10), make_set([interval(1, GROSSONE)]))
    assert measure_in(BoundedFinite(10**8, 10), make_set([interval(-(10**50), 10**50)])).mu == 2 * 10**50 + 1


@seed(26202)
@given(descriptors, st.integers(0, 2**32 - 1))
def test_measure_in_admits_and_refuses_as_can_express_would(descriptor, n):
    system = parse_system(descriptor)
    rng = Random(n)
    lo, hi = _int_range(system)
    # Parts near the ends of the range, so that some numerals fall just outside it.
    ends = sorted(rng.choice([lo, hi, -hi, 0]) + rng.randint(-3, 3) for _ in range(2))
    s = make_set([interval(*ends)])
    try:
        mu, runs = oracles.reference_measure_in(system, s)
    except NotExpressible as expected:
        with pytest.raises(NotExpressible) as got:
            measure_in(system, s)
        assert str(got.value) == str(expected)
        return
    m = measure_in(system, s)
    assert m.mu == mu
    assert [(p.domain.lo, p.domain.hi, p.offset) for p in m.pieces] == runs
