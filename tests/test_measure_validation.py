"""What the Measurement and transport validators accept, and what each rejection says.

The accept/reject oracle works on literal Python int sets, so it checks the
validator's run-joining against plain set arithmetic; whenever it accepts,
the target's element count is mu without the validator counting it.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from grossone.errors import BoundExceeded, InvalidMeasurement, NotABijection
from grossone.gnum import GROSSONE, finite
from grossone.measure import (
    AffinePiece,
    Measurement,
    canonical_measurement,
    min_extraction_measurement,
    transport,
)
from grossone.sets import cardinality, interval, make_set, parse_set_expression


def pieces_of(*runs) -> tuple[AffinePiece, ...]:
    return tuple(AffinePiece(interval(lo, hi), finite(offset)) for lo, hi, offset in runs)


@seed(20261018)
@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(1, 5), st.integers(-6, 6)), min_size=1, max_size=4),
    st.sampled_from(["images", "images", "random", "mu"]),
    st.frozensets(st.integers(-6, 26), max_size=12),
    st.sampled_from([-1, 1]),
)
def test_measurement_accepts_exactly_the_bijections(runs, case, random_elements, mu_shift):
    pieces, images, lo = [], [], 1
    for length, offset in runs:
        pieces.append(AffinePiece(interval(lo, lo + length - 1), finite(offset)))
        images.append(set(range(lo + offset, lo + length + offset)))
        lo += length
    covered = set().union(*images)
    elements = set(random_elements) if case == "random" else covered
    mu = lo - 1 + (mu_shift if case == "mu" else 0)
    disjoint = sum(map(len, images)) == len(covered)
    bijection = disjoint and covered == elements and mu == lo - 1
    target = oracles.set_from_model(elements)
    if bijection:
        m = Measurement(mu=mu, pieces=pieces, target=target)
        assert cardinality(m.target) == m.mu
    else:
        with pytest.raises(InvalidMeasurement):
            Measurement(mu=mu, pieces=pieces, target=target)


@pytest.mark.parametrize(
    "mu, runs, target, message",
    [
        (0, [(1, 1, 0)], "{1}", "mu must be a positive gross-integer, got 0"),
        (1, [], "{1}", "a measurement needs at least one piece"),
        (
            4,
            [(1, 2, 0), (4, 5, 0)],
            "[1..2]|[4..5]",
            "piece domains must be contiguous from 1: expected lo 3, got 4",
        ),
        (3, [(1, 2, 0)], "[1..2]", "piece domains must end at mu=3, got 2"),
        (4, [(1, 2, 0), (3, 4, -2)], "[1..2]", "piece images must be pairwise disjoint"),
        (2, [(1, 2, 0)], "[1..3]", "piece images must cover exactly the target"),
        # Overlapping images that also miss the target: disjointness is checked first.
        (4, [(1, 2, 0), (3, 4, -2)], "[5..8]", "piece images must be pairwise disjoint"),
    ],
)
def test_measurement_rejection_messages(mu, runs, target, message):
    with pytest.raises(InvalidMeasurement) as info:
        Measurement(mu=mu, pieces=pieces_of(*runs), target=parse_set_expression(target))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "runs, message",
    [
        ([], "a bijection needs at least one piece"),
        ([(1, 3, 0), (3, 4, 4)], "bijection domains overlap"),
        ([(1, 3, 0)], "bijection domains do not partition the measured set"),
        ([(1, 2, 0), (3, 4, -2)], "bijection images overlap"),
    ],
)
def test_transport_rejection_messages(runs, message):
    m = canonical_measurement(parse_set_expression("[1..4]"))
    with pytest.raises(NotABijection) as info:
        transport(m, pieces_of(*runs))
    assert str(info.value) == message


@seed(20261019)
@given(
    st.lists(st.tuples(st.integers(1, 60), st.integers(0, 12)), max_size=3),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12)), max_size=3),
    st.lists(st.tuples(st.integers(1, 30), st.integers(0, 12)), max_size=2),
)
def test_min_extraction_agrees_with_canonical_on_mixed_sets(plain, below, above):
    # Plain parts, parts [①-a-w..①-a] below ① and parts [①+a..①+a+w] above it.
    parts = [interval(a, a + w) for a, w in plain]
    parts += [interval(GROSSONE - a - w, GROSSONE - a) for a, w in below]
    parts += [interval(GROSSONE + a, GROSSONE + a + w) for a, w in above]
    s = make_set(parts)
    if s.is_empty:
        return
    assert min_extraction_measurement(s) == canonical_measurement(s)


def test_symbolic_extraction_past_the_bound_is_refused():
    with pytest.raises(BoundExceeded) as info:
        min_extraction_measurement(parse_set_expression("[①-20..①]"), bound=10)
    assert str(info.value) == "21 extraction steps exceed the configured bound 10"
