"""The measure layer keeps plain-integer numerals as ints and still gives what the GrossNumber paths give.

``canonical_measurement`` computes its runs on ints where the parts have
plain-integer ends, ``GrossInterval`` takes two ordered ints as they are,
``format_numeral`` writes a finite rational with ``str``, ``_coalesce``
tests plain-integer ends as ints, and ``measure_in`` gates the count before
it builds anything, walking a set's canonical runs once and building an
admitted set's measurement from that walk.  Each is compared with the
GrossNumber path it replaces, kept in ``tests/oracles.py``: values by their
entries' types as well as their values, errors by type and message.
"""

import sys
from collections import Counter
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone import measure
from grossone.errors import EmptySet, NotExpressible
from grossone.gnum import GROSSONE, GrossNumber, finite, format_numeral
from grossone.measure import AffinePiece, Measurement, canonical_measurement
from grossone.numeral_system import BoundedFinite, GrossBudget, Piraha, measure_in
from grossone.sets import EMPTY, GrossInterval, IntervalSet, interval, make_set, map_affine, union
from test_system_int_ranges import OddOnly

WIDE = 10**700


def typed(x):
    """A value with the type of every entry spelled out, so that ``1`` and ``Fraction(1)`` differ."""
    if type(x) is GrossNumber:
        return "GrossNumber", tuple((type(e).__name__, e, type(c).__name__, c) for e, c in x.terms)
    return type(x).__name__, x


def typed_runs(runs):
    return [tuple(typed(v) for v in run) for run in runs]


def outcome(call, *args):
    """``("value", result)`` or ``("error", type, message)`` of a call."""
    try:
        return "value", call(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return "error", type(exc), str(exc)


def random_set(rng: Random) -> IntervalSet:
    """A nonempty set: finite, negative, wide, with a ① tail, or mixing ① with plain integers."""
    kind = rng.choice(["finite", "negative", "wide", "tail", "mixed", "below"])
    if kind == "finite":
        return oracles.random_finite_set(rng, 1, 1000, 6)
    if kind == "negative":
        return oracles.random_finite_set(rng, -1000, 20, 6)
    if kind == "wide":
        return map_affine(oracles.random_finite_set(rng, 1, 1000, 6), rng.choice([1, -1]), rng.choice([WIDE, -WIDE]))
    if kind == "tail":
        return oracles.random_symbolic_set(rng)
    lead = oracles.random_finite_set(rng, -50, 4, 3).parts if rng.random() < 0.7 else ()
    if kind == "mixed":
        # [5..①] after finite parts, and parts past ① after it.
        rest = [interval(5, GROSSONE)]
        if rng.random() < 0.5:
            start = GROSSONE + rng.randint(2, 5)
            rest.append(interval(start, start + rng.randint(0, 4)))
        return make_set([*lead, *rest])
    # A part below every finite integer first, then plain-integer parts.
    low = interval(-GROSSONE, -GROSSONE + rng.randint(0, 5))
    return make_set([low, *lead, *oracles.random_finite_set(rng, 10, 100, 3).parts])


# ---------------------------------------------------------------- canonical_measurement


def check_canonical(s: IntervalSet) -> None:
    m = canonical_measurement(s)
    mu, runs = oracles.reference_canonical_runs(s)
    assert typed(m.mu) == typed(mu)
    assert typed_runs((p.domain.lo, p.domain.hi, p.offset) for p in m.pieces) == typed_runs(runs)
    assert all(type(p) is AffinePiece and type(p.domain) is GrossInterval for p in m.pieces)
    assert m.target is s
    validated = Measurement(mu, tuple(AffinePiece(GrossInterval(lo, hi), off) for lo, hi, off in runs), s)
    assert repr(m) == repr(validated)


@seed(25011)
@given(st.integers(0, 2**32 - 1))
def test_canonical_measurement_matches_the_gross_number_walk(n):
    check_canonical(random_set(Random(n)))


@pytest.mark.parametrize(
    "parts",
    [
        [(5, GROSSONE)],
        [(-3, 2), (5, GROSSONE)],
        [(-GROSSONE, -GROSSONE + 2), (0, 0), (7, 9)],
        [(1, 1)],
        [(0, 0)],
        [(-WIDE, -WIDE + 3), (WIDE, WIDE + 1)],
        [(1, 3), (GROSSONE - 1, GROSSONE), (GROSSONE + 2, 2 * GROSSONE)],
    ],
)
def test_canonical_measurement_matches_on_fixed_sets(parts):
    check_canonical(make_set(interval(lo, hi) for lo, hi in parts))


# ---------------------------------------------------------------- GrossInterval

endpoints = st.one_of(
    st.integers(-50, 50),
    st.integers(-(10**800), 10**800),
    st.booleans(),
    st.fractions(max_denominator=4),
    st.integers(-20, 20).map(lambda k: Fraction(k * 3, 3)),
    st.integers(-5, 5).map(lambda k: GROSSONE + k),
    st.integers(-5, 5).map(lambda k: k - GROSSONE),
    st.integers(-20, 20).map(finite),
    st.just(GROSSONE / 2),
    st.just(GrossNumber.from_terms([(1, 1), (-1, 1)])),
    st.just(1.0),
    st.just(10**5000),
)


def check_interval(lo, hi) -> None:
    expected = outcome(oracles.reference_interval, lo, hi)
    got = outcome(GrossInterval, lo, hi)
    if expected[0] == "error":
        assert got == expected
    else:
        assert got[0] == "value"
        assert (typed(got[1].lo), typed(got[1].hi)) == tuple(typed(v) for v in expected[1])


@seed(25012)
@given(endpoints, endpoints)
def test_an_interval_stores_what_the_validated_path_stores(lo, hi):
    check_interval(lo, hi)


@pytest.mark.parametrize(
    "lo, hi",
    [(3, 2), (0, -1), (True, False), (False, True), (True, True), (Fraction(1, 2), 3), (2, Fraction(7, 1)), (-WIDE, WIDE)],
)
def test_an_interval_of_fixed_ends_matches_the_validated_path(lo, hi):
    check_interval(lo, hi)


# ---------------------------------------------------------------- format_numeral

terms = st.lists(
    st.tuples(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)),
              st.one_of(st.integers(-(10**30), 10**30), st.fractions(max_denominator=9))),
    max_size=4,
)
values = st.one_of(
    st.integers(),
    st.integers(-(10**700), 10**700),
    st.fractions(),
    st.booleans(),
    terms.map(GrossNumber.from_terms),
)


@seed(25013)
@given(values, st.booleans())
def test_format_numeral_writes_what_the_term_loop_writes(x, ascii_mode):
    assert format_numeral(x, ascii_mode=ascii_mode) == oracles.reference_format_numeral(x, ascii_mode)


# The interpreter's int-to-string digit limit (4300 unless set otherwise; 0 is no limit).
LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("digits", [1, LIMIT or 4300, (LIMIT or 4300) + 1])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("ascii_mode", [False, True])
@pytest.mark.parametrize("wrap", [int, finite, Fraction])
def test_format_numeral_of_long_ints_matches_the_term_loop(digits, sign, ascii_mode, wrap):
    x = wrap(sign * (10**digits - 1))
    got = outcome(format_numeral, x, ascii_mode)
    assert got == outcome(oracles.reference_format_numeral, x, ascii_mode)
    assert got[0] == ("error" if LIMIT and digits > LIMIT else "value")


@pytest.mark.parametrize("x", [0, finite(0), Fraction(0), False, -1, -7, Fraction(-7, 3), 1 - GROSSONE, GROSSONE**2 - 3 * GROSSONE])
@pytest.mark.parametrize("ascii_mode", [False, True])
def test_format_numeral_of_fixed_values_matches_the_term_loop(x, ascii_mode):
    assert format_numeral(x, ascii_mode=ascii_mode) == oracles.reference_format_numeral(x, ascii_mode)


# ---------------------------------------------------------------- _coalesce and make_set


def random_part(rng: Random) -> GrossInterval:
    """A short part among few values, so parts touch, overlap and nest; some with ① ends."""
    kind = rng.random()
    if kind < 0.6:
        lo = rng.randint(-15, 15)
        return interval(lo, lo + rng.randint(0, 5))
    if kind < 0.85:
        lo = rng.choice([GROSSONE, -GROSSONE, 2 * GROSSONE]) + rng.randint(-6, 6)
        return interval(lo, lo + rng.randint(0, 5))
    # One plain-integer end and one ① end.
    k = rng.randint(-15, 15)
    return interval(k, GROSSONE + rng.randint(-3, 3)) if rng.random() < 0.5 else interval(rng.randint(-3, 3) - GROSSONE, k)


def typed_parts(pairs):
    return [(typed(lo), typed(hi)) for lo, hi in pairs]


@seed(25014)
@given(st.integers(0, 2**32 - 1))
def test_make_set_merges_as_the_gross_number_merge_does(n):
    rng = Random(n)
    parts = [random_part(rng) for _ in range(rng.randint(1, 12))]
    got = make_set(parts)
    expected = oracles.reference_coalesce(parts)
    assert typed_parts((p.lo, p.hi) for p in got.parts) == typed_parts(expected)
    assert IntervalSet(got.parts) == got  # the checking constructor accepts it
    a, b = make_set(parts[::2]), make_set(parts[1::2])
    assert typed_parts((p.lo, p.hi) for p in union(a, b).parts) == typed_parts(expected)


@seed(25015)
@given(st.integers(0, 2**32 - 1))
def test_make_set_of_finite_parts_agrees_with_the_int_model(n):
    rng = Random(n)
    pairs = []
    for _ in range(rng.randint(1, 12)):
        lo = rng.randint(-20, 20)
        pairs.append((lo, lo + rng.randint(0, 4)))
    got = make_set(interval(lo, hi) for lo, hi in pairs)
    model = {x for lo, hi in pairs for x in range(lo, hi + 1)}
    assert oracles.set_model(got) == model
    assert got == oracles.set_from_model(model)


@pytest.mark.parametrize(
    "pairs, joined",
    [
        ([(1, 3), (4, 6)], [(1, 6)]),
        ([(1, 3), (5, 6)], [(1, 3), (5, 6)]),
        ([(1, 9), (2, 3), (10, 10)], [(1, 10)]),
        ([(-GROSSONE, 3), (4, 6)], [(-GROSSONE, 6)]),
        ([(1, GROSSONE), (GROSSONE + 1, GROSSONE + 2), (5, 7)], [(1, GROSSONE + 2)]),
        ([(1, GROSSONE - 1), (GROSSONE + 1, GROSSONE + 1)], [(1, GROSSONE - 1), (GROSSONE + 1, GROSSONE + 1)]),
        ([(-GROSSONE, -GROSSONE), (-GROSSONE + 1, 0), (1, 1)], [(-GROSSONE, 1)]),
    ],
)
def test_touching_overlapping_and_symbolic_parts_join(pairs, joined):
    got = make_set(interval(lo, hi) for lo, hi in pairs)
    assert typed_parts((p.lo, p.hi) for p in got.parts) == typed_parts((finite(lo), finite(hi)) for lo, hi in joined)


# ---------------------------------------------------------------- the order of measure_in's gate


@pytest.fixture
def proven_calls(monkeypatch):
    """The calls made to ``measure._proven``, the builder of every canonical measurement."""
    calls = []
    build = measure._proven

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(measure, "_proven", counting)
    return calls


@pytest.fixture
def walks_and_builds():
    """Calls of ``measure._canonical_runs`` and ``measure._proven``, by name, however they are reached.

    Counted by code object from the interpreter's profile hook, so a caller
    that bound either function before the test began is counted too.
    """
    watched = {measure._canonical_runs.__code__: "_canonical_runs", measure._proven.__code__: "_proven"}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            counts[watched[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def assert_same_refusal(system, s):
    with pytest.raises(NotExpressible) as got:
        measure_in(system, s)
    with pytest.raises(NotExpressible) as expected:
        oracles.reference_measure_in(system, s)
    assert typed(got.value.value) == typed(expected.value.value)
    assert str(got.value) == str(expected.value)
    assert got.value.system_name == expected.value.system_name


# After its part below every finite integer, the set's runs (1, 4, -①-1) and
# (5, 7, 15) hold the plain integers 4, 5, 7 and 15 as GrossNumbers.
BOXED_AFTER_GROSS = [(-GROSSONE, -GROSSONE + 3), (20, 22)]


@pytest.mark.parametrize(
    "system, parts",
    [
        (Piraha(), [(1, 3)]),
        (Piraha(), [(1, 1), (5, 6)]),
        (BoundedFinite(9, 10), [(1, GROSSONE)]),
        (BoundedFinite(9, 10), [(-4, 2), (60, GROSSONE - 1)]),
        (BoundedFinite(1, 10), [(-WIDE, -WIDE + 9)]),
        (GrossBudget(1, 2, 1), [(1, 3 * GROSSONE - 2)]),
        (Piraha(), BOXED_AFTER_GROSS),  # at the count GrossNumber('7')
    ],
)
def test_a_set_refused_on_its_count_is_never_measured(proven_calls, system, parts):
    assert_same_refusal(system, make_set(interval(lo, hi) for lo, hi in parts))
    assert proven_calls == []


@pytest.mark.parametrize(
    "system, parts",
    [
        (Piraha(), [(3, 3)]),
        (Piraha(), [(1, 1), (5, 5)]),
        (BoundedFinite(9, 10), [(GROSSONE, GROSSONE)]),
        (BoundedFinite(2, 10), [(1, 5), (200, 201)]),
        (GrossBudget(2, 1, 1), BOXED_AFTER_GROSS),  # at the offset GrossNumber('15')
        (BoundedFinite(1, 10), BOXED_AFTER_GROSS),  # at the offset -①-1
        # Without a range: at the piece end GrossNumber('4'), and at -①-1.
        (OddOnly(2), BOXED_AFTER_GROSS),
        (BoundedFinite(10**8, 10), BOXED_AFTER_GROSS),
    ],
)
def test_a_set_refused_past_its_count_is_not_measured(proven_calls, system, parts):
    # The gate reads the canonical runs before any measurement is built.
    assert_same_refusal(system, make_set(interval(lo, hi) for lo, hi in parts))
    assert proven_calls == []


@pytest.mark.parametrize("system", [Piraha(), BoundedFinite(1, 2), GrossBudget(1, 1, 1)])
def test_emptiness_and_the_operand_type_are_refused_before_the_count(proven_calls, system):
    # The empty set's count 0 is not writable in the two-numeral system; the
    # emptiness is still what is reported.
    with pytest.raises(EmptySet, match="^the empty set has no measurement$"):
        measure_in(system, EMPTY)
    with pytest.raises(TypeError, match="^expected an IntervalSet, got list$"):
        measure_in(system, [interval(1, 3)])
    duck = SimpleNamespace(is_empty=False, parts=(interval(1, 3),))
    with pytest.raises(TypeError, match="^expected an IntervalSet, got SimpleNamespace$"):
        measure_in(system, duck)
    assert proven_calls == []


def test_an_admitted_set_is_measured_once(proven_calls):
    s = make_set([interval(1, 2)])
    m = measure_in(Piraha(), s)
    assert len(proven_calls) == 1
    assert m == canonical_measurement(s)


@pytest.mark.parametrize(
    "system, parts",
    [
        (Piraha(), [(1, 2)]),
        (BoundedFinite(9, 10), [(-4, 2), (60, 900)]),
        (GrossBudget(2, 2, 1), BOXED_AFTER_GROSS),
        (BoundedFinite(10**8, 10), [(1, 5), (WIDE, WIDE + 2)]),
    ],
)
def test_an_admitted_set_is_walked_once_and_built_from_that_walk(walks_and_builds, system, parts):
    s = make_set(interval(lo, hi) for lo, hi in parts)
    m = measure_in(system, s)
    assert (walks_and_builds["_canonical_runs"], walks_and_builds["_proven"]) == (1, 1)
    mu, runs = oracles.reference_measure_in(system, s)
    assert typed(m.mu) == typed(mu)
    assert typed_runs((p.domain.lo, p.domain.hi, p.offset) for p in m.pieces) == typed_runs(runs)
    assert typed_runs(m._runs) == typed_runs(measure._canonical_runs(s))


@pytest.mark.parametrize(
    "system, parts",
    [
        (Piraha(), [(1, 3)]),
        (Piraha(), [(3, 3)]),
        (GrossBudget(2, 1, 1), BOXED_AFTER_GROSS),
        (OddOnly(2), BOXED_AFTER_GROSS),
    ],
)
def test_a_refused_set_is_walked_once_and_never_built(walks_and_builds, system, parts):
    with pytest.raises(NotExpressible):
        measure_in(system, make_set(interval(lo, hi) for lo, hi in parts))
    assert (walks_and_builds["_canonical_runs"], walks_and_builds["_proven"]) == (1, 0)


systems = st.one_of(
    st.just(Piraha()),
    st.builds(BoundedFinite, st.integers(1, 9), st.integers(2, 16)),
    st.builds(GrossBudget, st.integers(1, 3), st.integers(1, 4), st.integers(1, 2)),
)


@seed(25016)
@given(systems, st.integers(0, 2**32 - 1), st.booleans())
def test_measure_in_admits_and_refuses_as_building_first_would(system, n, tiny):
    rng = Random(n)
    # Parts inside [1..3], so that the two-numeral system admits some.
    s = oracles.random_finite_set(rng, 1, 3, 2) if tiny else random_set(rng)
    try:
        mu, runs = oracles.reference_measure_in(system, s)
    except NotExpressible:
        assert_same_refusal(system, s)
        return
    m = measure_in(system, s)
    assert typed(m.mu) == typed(mu)
    assert typed_runs((p.domain.lo, p.domain.hi, p.offset) for p in m.pieces) == typed_runs(runs)
    assert m.target is s
