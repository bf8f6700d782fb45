"""Measurements: constructions, theorem suite, validation, serialization."""

import json
from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.errors import (
    BoundExceeded,
    EmptySet,
    InvalidMeasurement,
    NotABijection,
    NotASubset,
    OverlappingTargets,
    ParseError,
    PreconditionViolated,
)
from grossone.gnum import GROSSONE, Sign, cmp, finite, parse_numeral
from grossone.measure import (
    AffinePiece,
    Measurement,
    canonical_injection,
    canonical_measurement,
    compare_measured,
    complement_measurement,
    concat,
    from_json,
    from_text,
    intersection_split,
    invert_pieces,
    min_extraction_measurement,
    serialized_numerals,
    to_json,
    to_jsonable,
    to_text,
    transport,
)
from grossone.sets import (
    GrossInterval,
    IntervalSet,
    cardinality,
    interval,
    is_subset,
    make_set,
    parse_set_expression,
)

small_sets = st.lists(
    st.tuples(st.integers(1, 60), st.integers(0, 12)), min_size=1, max_size=4
).map(lambda runs: make_set(interval(a, min(a + w, 60)) for a, w in runs))


def expr(text: str) -> IntervalSet:
    return parse_set_expression(text)


def walk_all_points(m: Measurement):
    """Apply/invert round trip at every piece boundary and one interior point."""
    for piece in m.pieces:
        probes = {piece.domain.lo, piece.domain.hi}
        if piece.domain.lo + 1 <= piece.domain.hi:
            probes.add(piece.domain.lo + 1)
        for x in probes:
            y = m.apply(x)
            assert m.invert(y) == x
            assert piece.domain.lo <= x <= piece.domain.hi


class TestCanonicalConstruction:
    def test_tail_range(self):
        m = canonical_measurement(expr("[4..①]"))
        assert m.mu == GROSSONE - 3
        assert len(m.pieces) == 1
        assert m.pieces[0].offset == 3
        walk_all_points(m)

    def test_identity_case(self):
        m = canonical_measurement(expr("[1..9]"))
        assert m.mu == 9 and m.pieces[0].offset == 0

    def test_two_block_case(self):
        m = canonical_measurement(expr("[1..2]|[5..6]"))
        assert m.mu == 4
        got = [(p.domain.lo, p.domain.hi, p.offset) for p in m.pieces]
        assert got == [(1, 2, 0), (3, 4, 2)]

    def test_empty_set_has_no_measurement(self):
        with pytest.raises(EmptySet):
            canonical_measurement(IntervalSet())

    @given(small_sets)
    def test_enumerates_in_increasing_order(self, s):
        m = canonical_measurement(s)
        elements = sorted(oracles.set_model(s))
        assert m.mu == len(elements)
        for k, value in enumerate(elements, start=1):
            assert m.apply(k) == value
            assert m.invert(finite(value)) == k

    @given(small_sets)
    def test_apply_invert_round_trip(self, s):
        walk_all_points(canonical_measurement(s))


class TestMinExtraction:
    def test_literal_two_step_extraction(self):
        m = min_extraction_measurement(expr("{3,1}"))
        assert m.apply(1) == 1 and m.apply(2) == 3

    def test_identity(self):
        m = min_extraction_measurement(expr("[1..5]"))
        assert m == canonical_measurement(expr("[1..5]"))

    def test_agrees_with_canonical(self):
        s = expr("[2..4]|[8..9]")
        assert min_extraction_measurement(s) == canonical_measurement(s)

    @given(small_sets)
    def test_agreement_is_general(self, s):
        assert min_extraction_measurement(s) == canonical_measurement(s)

    def test_finite_set_with_symbolic_endpoints(self):
        s = expr("[①-3..①]")
        m = min_extraction_measurement(s)
        assert m == canonical_measurement(s)
        assert m.mu == 4 and m.apply(1) == GROSSONE - 3

    def test_mixed_symbolic_blocks(self):
        s = expr("{5}|[①-1..①]")
        m = min_extraction_measurement(s)
        assert m == canonical_measurement(s) and m.mu == 3

    def test_infinite_sets_take_the_closed_form(self):
        s = expr("[4..①]")
        assert min_extraction_measurement(s) == canonical_measurement(s)

    def test_execution_bound(self):
        with pytest.raises(BoundExceeded):
            min_extraction_measurement(expr("[1..①]\\[5..5]") & expr("[1..200001]"), bound=10)
        min_extraction_measurement(expr("[1..10]"), bound=10)

    def test_empty(self):
        with pytest.raises(EmptySet):
            min_extraction_measurement(IntervalSet())


class TestValidation:
    def test_wrong_mu_is_caught(self):
        with pytest.raises(InvalidMeasurement):
            Measurement(
                mu=finite(3),
                pieces=(AffinePiece(interval(1, 2), finite(0)),),
                target=expr("[1..2]"),
            )

    def test_domain_gap_is_caught(self):
        with pytest.raises(InvalidMeasurement):
            Measurement(
                mu=finite(4),
                pieces=(
                    AffinePiece(interval(1, 2), finite(0)),
                    AffinePiece(interval(4, 5), finite(0)),
                ),
                target=expr("[1..2]|[4..5]"),
            )

    def test_domain_must_start_at_one(self):
        with pytest.raises(InvalidMeasurement):
            Measurement(
                mu=finite(2),
                pieces=(AffinePiece(interval(2, 3), finite(0)),),
                target=expr("[2..3]"),
            )

    def test_overlapping_images_are_caught(self):
        with pytest.raises(InvalidMeasurement):
            Measurement(
                mu=finite(4),
                pieces=(
                    AffinePiece(interval(1, 2), finite(0)),
                    AffinePiece(interval(3, 4), finite(-2)),
                ),
                target=expr("[1..2]"),
            )

    def test_image_target_mismatch_is_caught(self):
        with pytest.raises(InvalidMeasurement):
            Measurement(
                mu=finite(2),
                pieces=(AffinePiece(interval(1, 2), finite(0)),),
                target=expr("[1..3]"),
            )

    def test_mu_must_be_a_positive_integer(self):
        with pytest.raises(InvalidMeasurement):
            Measurement(mu=finite(0), pieces=(), target=IntervalSet())

    def test_no_measurement_of_the_trimmed_range_with_full_mu(self):
        # Whatever pieces are offered, mu=① cannot measure [2..①-1]:
        # the count of that set is ①-2, two short.
        with pytest.raises(InvalidMeasurement):
            Measurement(
                mu=GROSSONE,
                pieces=(AffinePiece(interval(1, GROSSONE), finite(1)),),
                target=expr("[2..①-1]"),
            )
        assert cmp(cardinality(expr("[2..①-1]")), GROSSONE) == Sign.NEGATIVE


class TestConcat:
    def test_counts_add(self):
        c = concat(
            canonical_measurement(expr("[1..3]")), canonical_measurement(expr("[7..8]"))
        )
        assert c.mu == 5
        walk_all_points(c)

    def test_extending_the_full_range_by_two(self):
        c = concat(
            canonical_measurement(expr("[1..①]")),
            canonical_measurement(expr("[①+1..①+2]")),
        )
        assert c.mu == GROSSONE + 2
        assert c.target == expr("[1..①+2]")
        assert c.apply(GROSSONE + 1) == GROSSONE + 1

    def test_rejects_overlap(self):
        with pytest.raises(OverlappingTargets):
            concat(
                canonical_measurement(expr("[1..3]")),
                canonical_measurement(expr("[3..4]")),
            )

    @given(small_sets, small_sets)
    def test_whole_equals_part_plus_rest(self, a, b):
        # Carve a out of the union and measure the two halves separately.
        whole = a | b
        rest = whole - a
        m_whole = canonical_measurement(whole)
        m_a = canonical_measurement(a)
        if rest.is_empty:
            return
        m_rest = complement_measurement(m_whole, m_a)
        joined = concat(m_a, m_rest)
        assert joined.mu == m_whole.mu
        assert joined.target == whole


class TestTransport:
    def test_identity_bijection(self):
        m = canonical_measurement(expr("[1..2]|[5..6]"))
        ident = [AffinePiece(p.image, finite(0)) for p in m.pieces]
        assert transport(m, ident) == m

    def test_global_shift(self):
        m = canonical_measurement(expr("[1..①]"))
        moved = transport(m, [AffinePiece(interval(1, GROSSONE), finite(1))])
        assert moved.mu == GROSSONE
        assert moved.target == expr("[2..①+1]")

    def test_block_swap(self):
        m = canonical_measurement(expr("[1..10]"))
        swap = [
            AffinePiece(interval(1, 5), finite(5)),
            AffinePiece(interval(6, 10), finite(-5)),
        ]
        swapped = transport(m, swap)
        assert swapped.target == expr("[1..10]")
        assert swapped.apply(1) == 6 and swapped.apply(6) == 1
        walk_all_points(swapped)

    def test_domains_must_cover(self):
        m = canonical_measurement(expr("[1..4]"))
        with pytest.raises(NotABijection):
            transport(m, [AffinePiece(interval(1, 3), finite(0))])

    def test_domains_must_not_overlap(self):
        m = canonical_measurement(expr("[1..4]"))
        with pytest.raises(NotABijection):
            transport(
                m,
                [
                    AffinePiece(interval(1, 3), finite(0)),
                    AffinePiece(interval(3, 4), finite(4)),
                ],
            )

    def test_images_must_not_overlap(self):
        m = canonical_measurement(expr("[1..4]"))
        with pytest.raises(NotABijection):
            transport(
                m,
                [
                    AffinePiece(interval(1, 2), finite(0)),
                    AffinePiece(interval(3, 4), finite(-2)),
                ],
            )

    @given(small_sets, st.integers(-20, 20))
    def test_translation_transport_matches_recomputation(self, s, off):
        m = canonical_measurement(s)
        slide = [AffinePiece(part, finite(off)) for part in s.parts]
        moved = transport(m, slide)
        from grossone.sets import map_affine

        assert moved.target == map_affine(s, 1, off)
        assert moved == canonical_measurement(map_affine(s, 1, off))

    def test_inverse_pieces_undo(self):
        m = canonical_measurement(expr("[1..2]|[5..6]"))
        forward = [AffinePiece(p.image, finite(3)) for p in m.pieces]
        back = invert_pieces(forward)
        restored = transport(transport(m, forward), back)
        assert restored == m


class TestComparisonAndInjection:
    def test_strict_containment_compares_negative(self):
        inner = canonical_measurement(expr("[2..①-1]"))
        outer = canonical_measurement(expr("[1..①]"))
        assert compare_measured(inner, outer) == Sign.NEGATIVE
        assert compare_measured(outer, inner) == Sign.POSITIVE

    def test_same_set_compares_zero(self):
        m = canonical_measurement(expr("[3..8]"))
        assert compare_measured(m, m) == Sign.ZERO

    def test_square_range_versus_plain_range(self):
        big = canonical_measurement(expr("[1..①^2]"))
        plain = canonical_measurement(expr("[1..①]"))
        assert compare_measured(big, plain) == Sign.POSITIVE

    def test_explicit_injection_is_produced(self):
        small = canonical_measurement(expr("[2..①-1]"))
        large = canonical_measurement(expr("[1..①]"))
        pieces = canonical_injection(small, large)
        images = make_set(p.image for p in pieces)
        assert is_subset(images, large.target)
        assert cardinality(images) == small.mu

    @given(small_sets, small_sets)
    def test_injection_between_random_measured_sets(self, a, b):
        ma, mb = canonical_measurement(a), canonical_measurement(b)
        if compare_measured(ma, mb) == Sign.POSITIVE:
            ma, mb = mb, ma
            a, b = b, a
        pieces = canonical_injection(ma, mb)
        domains = make_set(p.domain for p in pieces)
        images = make_set(p.image for p in pieces)
        assert domains == a
        assert is_subset(images, b)
        assert cardinality(images) == ma.mu

    def test_larger_into_smaller_is_refused(self):
        with pytest.raises(PreconditionViolated):
            canonical_injection(
                canonical_measurement(expr("[1..5]")),
                canonical_measurement(expr("[1..4]")),
            )

    @given(small_sets, small_sets)
    def test_mutual_injections_force_equal_counts(self, a, b):
        ma, mb = canonical_measurement(a), canonical_measurement(b)
        forward = compare_measured(ma, mb)
        backward = compare_measured(mb, ma)
        if forward != Sign.POSITIVE and backward != Sign.POSITIVE:
            assert forward == Sign.ZERO and backward == Sign.ZERO
            assert cardinality(a) == cardinality(b)


class TestComplement:
    def test_tail_after_removing_a_prefix(self):
        whole = canonical_measurement(expr("[1..①]"))
        part = canonical_measurement(expr("[1..3]"))
        rest = complement_measurement(whole, part)
        assert rest.mu == GROSSONE - 3
        assert rest.target == expr("[4..①]")
        assert rest.mu == whole.mu - part.mu

    def test_middle_removed(self):
        rest = complement_measurement(
            canonical_measurement(expr("[1..5]")), canonical_measurement(expr("[2..4]"))
        )
        assert rest.target == expr("{1,5}")
        assert rest.mu == 2

    def test_part_must_be_inside(self):
        with pytest.raises(NotASubset):
            complement_measurement(
                canonical_measurement(expr("[1..3]")),
                canonical_measurement(expr("[1..5]")),
            )

    def test_whole_minus_itself(self):
        m = canonical_measurement(expr("[1..5]"))
        with pytest.raises(EmptySet):
            complement_measurement(m, m)

    @given(small_sets, small_sets)
    def test_mu_subtraction_always_holds(self, a, whole_extra):
        whole = a | whole_extra
        m_whole = canonical_measurement(whole)
        m_a = canonical_measurement(a)
        if (whole - a).is_empty:
            return
        rest = complement_measurement(m_whole, m_a)
        assert rest.mu == m_whole.mu - m_a.mu
        assert cmp(rest.mu, finite(0)) == Sign.POSITIVE


class TestIntersectionSplit:
    def test_shifted_full_ranges(self):
        d1, d2 = intersection_split(
            canonical_measurement(expr("[1..①]")),
            canonical_measurement(expr("[2..①+1]")),
        )
        assert d1.target == expr("{1}") and d2.target == expr("[①+1..①+1]")
        assert d1.mu == d2.mu == 1

    def test_finite_overlap(self):
        d1, d2 = intersection_split(
            canonical_measurement(expr("[1..6]")), canonical_measurement(expr("[4..9]"))
        )
        assert d1.target == expr("[1..3]") and d2.target == expr("[7..9]")
        assert d1.mu == d2.mu == 3

    @pytest.mark.parametrize(
        "a, b",
        [("[1..3]", "[1..4]"), ("[1..3]", "[5..7]"), ("[1..3]", "[1..3]")],
    )
    def test_each_precondition_clause(self, a, b):
        with pytest.raises(PreconditionViolated):
            intersection_split(
                canonical_measurement(expr(a)), canonical_measurement(expr(b))
            )

    def test_random_equal_sized_overlapping_pairs(self):
        rng = Random(11)
        produced = 0
        for _ in range(200):
            a = oracles.random_finite_set(rng, 1, 80, 3)
            shift = rng.randint(-10, 10)
            from grossone.sets import map_affine

            b = map_affine(a, 1, shift)
            if a == b or (a & b).is_empty:
                continue
            d1, d2 = intersection_split(
                canonical_measurement(a), canonical_measurement(b)
            )
            assert d1.mu == d2.mu
            assert cmp(d1.mu, finite(0)) == Sign.POSITIVE
            produced += 1
        assert produced > 50


class TestSerialization:
    def test_text_golden_form(self):
        m = canonical_measurement(expr("[1..2]|[5..6]"))
        assert to_text(m) == "mu 4\npiece 1 2\npiece 3 4 2\ntarget [1..2]\ntarget [5..6]\n"

    def test_zero_offsets_are_left_out(self):
        m = canonical_measurement(expr("[1..7]"))
        assert to_text(m) == "mu 7\npiece 1 7\ntarget [1..7]\n"
        assert "offset" not in json.dumps(to_jsonable(m))

    def test_symbolic_json_golden_form(self):
        m = canonical_measurement(expr("[4..①]"))
        assert to_jsonable(m) == {
            "mu": "①-3",
            "pieces": [{"lo": "1", "hi": "①-3", "offset": "3"}],
            "target": [{"lo": "4", "hi": "①"}],
        }

    @given(small_sets)
    def test_round_trips(self, s):
        m = canonical_measurement(s)
        assert from_text(to_text(m)) == m
        assert from_json(to_json(m)) == m
        assert from_text(to_text(m, ascii_mode=True)) == m

    def test_ascii_mode_uses_the_fallback_token(self):
        m = canonical_measurement(expr("[4..①]"))
        assert "G1-3" in to_text(m, ascii_mode=True)
        assert from_text(to_text(m, ascii_mode=True)) == m

    def test_serialized_numeral_order(self):
        m = canonical_measurement(expr("[1..2]|[5..6]"))
        got = [str(v) for v in serialized_numerals(m)]
        assert got == ["4", "1", "2", "3", "4", "2", "1", "2", "5", "6"]

    def test_text_parse_errors_carry_line_information(self):
        with pytest.raises(ParseError):
            from_text("mu 3\npiece x y\ntarget [1..3]\n")
        with pytest.raises(ParseError):
            from_text("nonsense line\n")
        with pytest.raises(InvalidMeasurement):
            from_text("piece 1 3\ntarget [1..3]\n")

    def test_tampered_payloads_fail_revalidation(self):
        m = canonical_measurement(expr("[1..4]"))
        payload = to_jsonable(m)
        payload["mu"] = "5"
        with pytest.raises(InvalidMeasurement):
            from_json(json.dumps(payload))


@seed(20261024)
@given(
    st.sampled_from([oracles.random_finite_set, oracles.random_symbolic_set]),
    st.randoms(use_true_random=False),
    st.randoms(use_true_random=False),
)
def test_canonical_injection_routes_symbolic_sets_pointwise(first_kind, rng_a, rng_b):
    # The second set has a tail near ①, so its measurement's domains run
    # past the first mu, partly or wholly.
    ma = canonical_measurement(first_kind(rng_a))
    mb = canonical_measurement(oracles.random_symbolic_set(rng_b))
    if compare_measured(ma, mb) == Sign.POSITIVE:
        ma, mb = mb, ma
    pieces = canonical_injection(ma, mb)
    assert make_set(p.domain for p in pieces) == ma.target
    assert sum((p.domain.count() for p in pieces), finite(0)) == ma.mu
    for p in pieces:
        lo, hi = p.domain.lo, p.domain.hi
        for x in {lo, hi, min(lo + 1, hi), max(hi - 1, lo)}:
            assert x + p.offset == mb.apply(ma.invert(x))
