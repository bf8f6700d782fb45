"""Interval sets: canonical form, algebra against a bitset model, segments."""

from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.errors import (
    EmptyIntervalRejected,
    EmptySet,
    NonIntegerEndpoint,
    NonIntegerOffset,
    NotSubsetOfRange,
    ParseError,
)
from grossone.gnum import GROSSONE, Sign, cmp, finite, parse_numeral
from grossone.sets import (
    EMPTY,
    GrossInterval,
    IntervalSet,
    cardinality,
    contains,
    convex_hull,
    difference,
    extrema,
    intersect,
    interval,
    is_final_segment,
    is_initial_segment,
    is_subset,
    make_set,
    map_affine,
    parse_set_expression,
    union,
    union_initial_segments,
)

# Small finite sets drawn inside [1..60] so the bitset model stays cheap.
small_sets = st.lists(
    st.tuples(st.integers(1, 60), st.integers(0, 12)), min_size=0, max_size=4
).map(lambda runs: make_set(interval(a, min(a + w, 60)) for a, w in runs))


def expr(text: str) -> IntervalSet:
    return parse_set_expression(text)


class TestCanonicalForm:
    def test_adjacent_parts_merge(self):
        assert expr("[1..3]|[4..6]") == expr("[1..6]")

    def test_overlap_merges(self):
        assert make_set([interval(1, 5), interval(3, 9)]) == expr("[1..9]")

    def test_disjoint_parts_stay_sorted(self):
        s = make_set([interval(7, 9), interval(1, 2)])
        assert [str(p) for p in s.parts] == ["[1..2]", "[7..9]"]

    def test_constructor_rejects_non_canonical_input(self):
        with pytest.raises(ValueError):
            IntervalSet((interval(1, 3), interval(4, 6)))
        with pytest.raises(ValueError):
            IntervalSet((interval(5, 6), interval(1, 2)))

    @given(small_sets)
    def test_make_set_is_idempotent(self, s):
        assert make_set(s.parts) == s

    def test_interval_validation(self):
        with pytest.raises(EmptyIntervalRejected):
            interval(5, 3)
        with pytest.raises(NonIntegerEndpoint):
            GrossInterval(parse_numeral("1/2"), finite(3))
        with pytest.raises(NonIntegerEndpoint):
            GrossInterval(parse_numeral("①^-1"), finite(3))
        # coefficients of positive powers may be fractional and still integer
        GrossInterval(parse_numeral("1/2①"), GROSSONE)


class TestAlgebraAgainstBitsetModel:
    @given(small_sets, small_sets)
    def test_union(self, a, b):
        assert oracles.set_model(union(a, b)) == oracles.set_model(a) | oracles.set_model(b)

    @given(small_sets, small_sets)
    def test_intersection(self, a, b):
        assert oracles.set_model(intersect(a, b)) == oracles.set_model(a) & oracles.set_model(b)

    @given(small_sets, small_sets)
    def test_difference(self, a, b):
        assert oracles.set_model(difference(a, b)) == oracles.set_model(a) - oracles.set_model(b)

    @given(small_sets)
    def test_cardinality_counts_elements(self, s):
        assert cardinality(s) == len(oracles.set_model(s))

    @given(small_sets, st.integers(-2, 62))
    def test_membership(self, s, x):
        assert contains(s, x) == (x in oracles.set_model(s))

    @given(small_sets, small_sets)
    def test_subset(self, a, b):
        assert is_subset(a, b) == (oracles.set_model(a) <= oracles.set_model(b))

    @given(small_sets, small_sets)
    def test_cardinality_additivity(self, a, b):
        assert cardinality(a) == cardinality(intersect(a, b)) + cardinality(difference(a, b))


class TestSymbolicCardinality:
    def test_full_range_has_unit_many_elements(self):
        assert cardinality(expr("[1..①]")) == GROSSONE

    def test_symmetric_range(self):
        assert cardinality(expr("[-①..①]")) == 2 * GROSSONE + 1

    def test_removing_one_element(self):
        assert cardinality(expr("[1..①]\\{1}")) == GROSSONE - 1

    def test_empty(self):
        assert cardinality(EMPTY) == 0 and EMPTY.is_empty

    def test_additivity_with_symbolic_endpoints(self):
        a = expr("[1..①]")
        b = expr("[5..①+3]")
        assert cardinality(a) == cardinality(intersect(a, b)) + cardinality(difference(a, b))

    def test_proper_subsets_count_strictly_less(self):
        whole = expr("[1..①]")
        for sub_text in ["[2..①]", "[1..①-1]", "[2..①-1]", "[1..1000]", "{1}"]:
            part = expr(sub_text)
            assert is_subset(part, whole)
            assert cmp(cardinality(part), cardinality(whole)) == Sign.NEGATIVE, sub_text

    def test_randomized_proper_subsets_symbolic(self):
        rng = Random(4)
        whole = expr("[1..①]")
        for _ in range(40):
            lo = rng.randint(2, 100)
            hi = GROSSONE - rng.randint(0, 50)
            part = IntervalSet((GrossInterval(finite(lo), hi),))
            assert cmp(cardinality(part), cardinality(whole)) == Sign.NEGATIVE


class TestExtremaAndHull:
    def test_extrema(self):
        assert extrema(expr("[3..7]|[10..12]")) == (finite(3), finite(12))

    def test_extrema_of_empty(self):
        with pytest.raises(EmptySet):
            extrema(EMPTY)

    def test_hull_examples(self):
        assert convex_hull(expr("[2..3]|[7..9]")) == expr("[2..9]")
        assert convex_hull(expr("[1..3]|[①-1..①]")) == expr("[1..①]")
        assert convex_hull(expr("[4..4]")) == expr("[4..4]")

    @given(small_sets.filter(lambda s: not s.is_empty))
    def test_hull_contains_the_set_minimally(self, s):
        hull = convex_hull(s)
        assert is_subset(s, hull)
        lo, hi = extrema(s)
        assert hull == IntervalSet((GrossInterval(lo, hi),))


class TestAffineImages:
    def test_translation(self):
        assert map_affine(expr("[1..3]"), 1, 2) == expr("[3..5]")

    def test_reversal_of_the_full_range(self):
        s = expr("[1..①]")
        assert map_affine(s, -1, GROSSONE + 1) == s

    def test_reversal_of_inner_range(self):
        got = map_affine(expr("[2..①-1]"), -1, GROSSONE + 1)
        assert got == expr("[2..①-1]")

    @given(small_sets, st.integers(-30, 30))
    def test_cardinality_preserved(self, s, off):
        shifted = map_affine(s, 1, off)
        assert cardinality(shifted) == cardinality(s)
        mirrored = map_affine(s, -1, off)
        assert cardinality(mirrored) == cardinality(s)

    @given(small_sets, st.integers(-30, 30))
    def test_mirror_is_an_involution(self, s, off):
        assert map_affine(map_affine(s, -1, off), -1, off) == s

    def test_mirror_swaps_extrema(self):
        s = expr("[3..5]|[9..9]")
        lo, hi = extrema(map_affine(s, -1, 0))
        assert (lo, hi) == (finite(-9), finite(-3))

    def test_offset_must_be_integral(self):
        with pytest.raises(NonIntegerOffset):
            map_affine(expr("[1..2]"), 1, parse_numeral("1/2"))
        with pytest.raises(ValueError):
            map_affine(expr("[1..2]"), 2, 0)


class TestSegments:
    def test_initial_segment_recognized(self):
        assert is_initial_segment(expr("[1..7]")) == 7
        assert is_initial_segment(expr("[1..①]")) == GROSSONE

    def test_not_initial(self):
        assert is_initial_segment(expr("[2..7]")) is None
        assert is_initial_segment(expr("[1..3]|[5..6]")) is None

    def test_initial_requires_containment(self):
        with pytest.raises(NotSubsetOfRange):
            is_initial_segment(expr("[1..①+1]"))
        with pytest.raises(NotSubsetOfRange):
            is_initial_segment(expr("[0..3]"), 10)

    def test_final_segment(self):
        assert is_final_segment(expr("[5..①]")) == 5
        assert is_final_segment(expr("[5..9]"), 9) == 5
        assert is_final_segment(expr("[①..①]")) == GROSSONE

    def test_not_final(self):
        assert is_final_segment(expr("[5..8]"), 9) is None
        assert is_final_segment(expr("[1..①-1]")) is None

    @given(small_sets.filter(lambda s: not s.is_empty))
    def test_initial_segment_shape_characterization(self, s):
        witness = is_initial_segment(s, 100)
        expected = len(s.parts) == 1 and s.parts[0].lo == 1
        assert (witness is not None) == expected
        if witness is not None:
            assert witness == cardinality(s)

    def test_union_of_all_shorter_initial_segments(self):
        assert union_initial_segments(GROSSONE) == expr("[1..①-1]")
        assert union_initial_segments(5) == expr("[1..4]")
        assert union_initial_segments(1) == EMPTY

    def test_their_union_misses_exactly_the_top(self):
        top = difference(expr("[1..①]"), union_initial_segments(GROSSONE))
        assert top == expr("[①..①]")


class TestExpressionParsing:
    @pytest.mark.parametrize(
        "text, same_as",
        [
            ("[1..5]&[3..9]", "[3..5]"),
            ("[1..10]\\[4..6]", "[1..3]|[7..10]"),
            ("{1,2,3}", "[1..3]"),
            ("{5,1,2}", "[1..2]|[5..5]"),
            ("{}", "{}"),
            ("( [1..4] | [6..8] ) & [3..7]", "[3..4]|[6..7]"),
            ("[1..5]|[8..9]&[1..8]", "[1..5]|[8..8]"),
            ("[1..9]\\[2..3]\\[5..6]", "[1..1]|[4..4]|[7..9]"),
            ("iota([1..3], 10)", "[8..10]"),
            ("reflect([1..3], 2)", "[1..3]"),
            ("hull({1,9})", "[1..9]"),
            ("iota([2..①-1], ①)", "[2..①-1]"),
            ("[G1-1..G1]", "[①-1..①]"),
        ],
    )
    def test_evaluation(self, text, same_as):
        assert expr(text) == expr(same_as)

    def test_empty_braces(self):
        assert expr("{}") == EMPTY

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "[1..2",
            "[2..1]",
            "[1..2]|",
            "[1..2] [3..4]",
            "{1,}",
            "hull()",
            "iota([1..2])",
            "frob([1..2])",
            "[1/2..3]",
            "hull({})",
        ],
    )
    def test_rejections(self, text):
        with pytest.raises((ParseError, EmptyIntervalRejected, NonIntegerEndpoint, EmptySet)):
            expr(text)

    def test_round_trip_via_str(self):
        s = expr("[1..3]|[7..①]")
        assert expr(str(s)) == s


# ------------------------------------------------------------ map_affine images

int_sets = st.sets(st.integers(-40, 80), max_size=40).map(oracles.set_from_model)
gross_offsets = st.builds(
    lambda k, c: GROSSONE * k + c, st.integers(-2, 2), st.integers(-300, 300)
)


@seed(20261022)
@given(int_sets, st.sampled_from([1, -1]), st.integers(-100, 100))
def test_map_affine_matches_the_int_model(s, sign, offset):
    image = map_affine(s, sign, offset)
    assert oracles.set_model(image) == {sign * x + offset for x in oracles.set_model(s)}


@seed(20261023)
@given(st.randoms(use_true_random=False), st.sampled_from([1, -1]), gross_offsets)
def test_map_affine_of_a_symbolic_set_is_make_set_of_the_mapped_parts(rng, sign, offset):
    s = oracles.random_symbolic_set(rng)
    ends = [(p.lo * sign + offset, p.hi * sign + offset) for p in s.parts]
    assert map_affine(s, sign, offset) == make_set(
        GrossInterval(min(a, b), max(a, b)) for a, b in ends
    )
