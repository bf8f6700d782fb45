"""Numeral systems: expressibility, extreme numerals, relative measurement."""

import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from grossone.errors import InvalidArgument, NoInfiniteNumerals, NotExpressible, ParseError
from grossone.gnum import (
    GROSSONE,
    GrossNumber,
    Sign,
    classify,
    cmp,
    finite,
    gross_term,
    parse_numeral,
)
from grossone.measure import canonical_measurement, serialized_numerals
from grossone.numeral_system import (
    BoundedFinite,
    GrossBudget,
    Piraha,
    expressible,
    max_finite,
    measure_in,
    min_infinite,
    parse_system,
)
from grossone.sets import interval, make_set, parse_set_expression

small_sets = st.lists(
    st.tuples(st.integers(1, 40), st.integers(0, 8)), min_size=1, max_size=3
).map(lambda runs: make_set(interval(a, min(a + w, 40)) for a, w in runs))


def expr(text):
    return parse_set_expression(text)


def one_term_values(coeff_digits: int, exp_digits: int) -> list[GrossNumber]:
    """Every expressible single-term value of the budget, by brute force."""
    top_c = 10**coeff_digits - 1
    top_e = 10**exp_digits - 1
    out = []
    for p, q, e in product(
        range(-top_c, top_c + 1), range(1, top_c + 1), range(-top_e, top_e + 1)
    ):
        if p == 0:
            continue
        out.append(gross_term(Fraction(p, q), e))
    return out


class TestExpressibility:
    def test_piraha_counts_to_two(self):
        pir = Piraha()
        assert expressible(pir, finite(1))
        assert expressible(pir, finite(2))
        assert not expressible(pir, finite(3))
        assert not expressible(pir, finite(0))
        assert not expressible(pir, GROSSONE)

    def test_bounded_finite_window(self):
        sys_ = BoundedFinite(2, 10)
        assert expressible(sys_, finite(99))
        assert not expressible(sys_, finite(100))
        assert expressible(sys_, finite(-99))
        assert expressible(sys_, finite(0))
        assert not expressible(sys_, finite(Fraction(1, 2)))
        assert not expressible(sys_, GROSSONE)

    def test_gross_budget_term_count(self):
        sys_ = GrossBudget(1, 2, 1)
        assert expressible(sys_, GROSSONE)
        assert not expressible(sys_, parse_numeral("2①+1"))
        assert expressible(sys_, parse_numeral("99①^9"))
        assert not expressible(sys_, parse_numeral("100①"))
        assert not expressible(sys_, parse_numeral("①^10"))
        assert expressible(sys_, finite(0))

    def test_gross_budget_needs_integer_exponents(self):
        sys_ = GrossBudget(3, 3, 2)
        assert not expressible(sys_, parse_numeral("①^(1/2)"))
        assert expressible(sys_, parse_numeral("①^10"))

    def test_gross_budget_counts_digits_of_the_reduced_fraction(self):
        sys_ = GrossBudget(1, 1, 1)
        # 2/4 reduces to 1/2 and fits a one-digit budget.
        assert expressible(sys_, gross_term(Fraction(2, 4), 1))
        assert not expressible(sys_, gross_term(Fraction(1, 10), 1))

    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(
                    lambda f: f != 0
                ),
            ),
            max_size=3,
        ).map(GrossNumber.from_terms)
    )
    def test_budget_growth_never_loses_values(self, x):
        small = GrossBudget(2, 1, 1)
        for bigger in [GrossBudget(3, 1, 1), GrossBudget(2, 2, 1), GrossBudget(2, 1, 2)]:
            if expressible(small, x):
                assert expressible(bigger, x)

    def test_descriptor_round_trip(self):
        for sys_ in [Piraha(), BoundedFinite(3, 2), GrossBudget(2, 3, 1)]:
            assert parse_system(sys_.describe()) == sys_

    @pytest.mark.parametrize("bad", ["", "pirahax", "finite:2", "gross:1:2", "finite:a:10"])
    def test_descriptor_rejections(self, bad):
        with pytest.raises(ParseError):
            parse_system(bad)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            BoundedFinite(0, 10)
        with pytest.raises(ValueError):
            BoundedFinite(2, 1)
        with pytest.raises(ValueError):
            GrossBudget(0, 1, 1)


class TestGreatestFinite:
    def test_known_values(self):
        assert max_finite(Piraha()) == 2
        assert max_finite(BoundedFinite(2, 10)) == 99
        assert max_finite(GrossBudget(2, 3, 1)) == 999

    def test_scan_oracle_for_bounded_finite(self):
        for digits, base in [(2, 10), (3, 2), (1, 7)]:
            sys_ = BoundedFinite(digits, base)
            best = max(
                n for n in range(1, base**digits + 2) if expressible(sys_, finite(n))
            )
            assert max_finite(sys_) == best

    def test_scan_oracle_for_gross_budget(self):
        sys_ = GrossBudget(1, 1, 1)
        finite_ints = [
            v
            for v in one_term_values(1, 1)
            if classify(v).is_finite and classify(v).is_integer and v.sign() == Sign.POSITIVE
        ]
        assert max_finite(sys_) == max(finite_ints)

    def test_successor_of_the_maximum_is_unwritable(self):
        for sys_ in [Piraha(), BoundedFinite(2, 10), BoundedFinite(3, 2)]:
            top = max_finite(sys_)
            assert expressible(sys_, top)
            assert not expressible(sys_, top + 1)


class TestLeastInfinite:
    def test_single_term_budget(self):
        assert min_infinite(GrossBudget(1, 3, 1)) == gross_term(Fraction(1, 999), 1)
        assert str(min_infinite(GrossBudget(1, 3, 1))) == "1/999①"

    def test_two_term_budget(self):
        want = gross_term(Fraction(1, 999), 1) - 999
        assert min_infinite(GrossBudget(2, 3, 1)) == want
        assert str(want) == "1/999①-999"

    def test_finite_only_systems_have_none(self):
        for sys_ in [Piraha(), BoundedFinite(4, 10)]:
            with pytest.raises(NoInfiniteNumerals):
                min_infinite(sys_)

    def test_scan_oracle_single_term(self):
        sys_ = GrossBudget(1, 1, 1)
        infinite_ints = [
            v
            for v in one_term_values(1, 1)
            if classify(v).is_infinite
            and classify(v).is_integer
            and v.sign() == Sign.POSITIVE
        ]
        assert min_infinite(sys_) == min(infinite_ints)

    def test_scan_oracle_two_terms(self):
        sys_ = GrossBudget(2, 1, 1)
        assert min_infinite(sys_) == min(self._two_term_integer_candidates())

    @staticmethod
    def _two_term_integer_candidates() -> list[GrossNumber]:
        """All expressible positive infinite integers of budget (2,1,1) at or
        below the single-term floor.

        Positive integers need a positive leading coefficient and no
        negative exponents, and anything leading with exponent 2 or more
        already tops every exponent-1 value (checked below), so scanning
        lead exponent 1 with an optional integer constant term is
        exhaustive for the minimum.
        """
        smallest_quadratic = gross_term(Fraction(1, 9), 2) - gross_term(9, 1) - 9
        assert cmp(smallest_quadratic, gross_term(9, 1) + 9) == Sign.POSITIVE
        out = []
        coeffs = [
            Fraction(p, q) for p in range(1, 10) for q in range(1, 10)
        ]
        for c1 in coeffs:
            lead = gross_term(c1, 1)
            out.append(lead)
            for c0 in range(-9, 10):
                if c0 == 0:
                    continue
                candidate = lead + c0
                assert classify(candidate).is_integer
                out.append(candidate)
        return out

    def test_exactly_two_expressible_integers_in_the_gap_closure(self):
        # Between the greatest finite numeral and the least infinite one,
        # inclusive, a budgeted system can write exactly two integers.
        for sys_, candidates in [
            (GrossBudget(1, 1, 1), one_term_values(1, 1)),
            (
                GrossBudget(2, 1, 1),
                one_term_values(1, 1) + self._two_term_integer_candidates(),
            ),
        ]:
            lo = max_finite(sys_)
            hi = min_infinite(sys_)
            found = {
                v
                for v in candidates
                if classify(v).is_integer
                and expressible(sys_, v)
                and lo <= v <= hi
            }
            assert found == {lo, hi}, sys_.describe()


class TestRelativeMeasurement:
    def test_two_element_set_in_the_two_numeral_system(self):
        m = measure_in(Piraha(), expr("{1,2}"))
        assert m.mu == 2
        assert len(m.pieces) == 1 and m.pieces[0].offset == 0

    def test_three_element_set_fails_at_its_count(self):
        with pytest.raises(NotExpressible) as info:
            measure_in(Piraha(), expr("{1,2,3}"))
        assert info.value.value == 3
        assert info.value.system_name == "piraha"

    def test_displaced_singleton_fails_at_the_target(self):
        with pytest.raises(NotExpressible) as info:
            measure_in(Piraha(), expr("{3}"))
        assert info.value.value == 3

    def test_full_range_in_a_budget_system(self):
        m = measure_in(GrossBudget(2, 3, 1), expr("[1..①]"))
        assert m.mu == GROSSONE
        assert m.pieces[0].offset == 0

    @given(small_sets)
    def test_success_means_every_written_numeral_fits(self, s):
        sys_ = BoundedFinite(1, 10)
        numerals = serialized_numerals(canonical_measurement(s))
        writable = all(expressible(sys_, v) for v in numerals)
        try:
            measure_in(sys_, s)
            assert writable
        except NotExpressible as exc:
            assert not writable
            first_bad = next(v for v in numerals if not expressible(sys_, v))
            assert exc.value == first_bad


@st.composite
def near_the_bound(draw):
    """A system and an integer at, around or far from its largest value."""
    base = draw(st.sampled_from([2, 3, 7, 10, 16, 1000]) | st.integers(2, 10**6))
    digits = draw(st.integers(1, 40))
    largest = base**digits - 1
    n = draw(
        st.sampled_from([largest, largest + 1, largest - 1, 0, base ** (digits - 1)])
        | st.integers(0, 2 * largest)
        | st.integers(0, 400).map(lambda e: 10**e)
    )
    return BoundedFinite(digits, base), draw(st.sampled_from([n, -n]))


class TestHugeBoundedFinite:
    """A library-built system with a huge ``digits`` never builds its power."""

    @seed(11)
    @given(near_the_bound())
    def test_digit_counts_agree_with_the_power(self, case):
        sys_, n = case
        assert expressible(sys_, finite(n)) == (abs(n) <= sys_.base**sys_.digits - 1)

    def test_max_finite_refuses_a_power_too_long_to_write(self):
        # Just past the 4300-digit limit, so that a missing refusal fails
        # here instead of hanging; the subprocess below tries 10**8 digits.
        with pytest.raises(InvalidArgument):
            max_finite(BoundedFinite(4301, 10))
        assert max_finite(BoundedFinite(4300, 10)) == finite(10**4300 - 1)

    def test_answers_in_bounded_time(self):
        code = (
            "from grossone.numeral_system import BoundedFinite, expressible, max_finite\n"
            "from grossone.errors import InvalidArgument\n"
            "huge = BoundedFinite(10**8, 10)\n"
            "print(expressible(huge, 5), expressible(huge, -(10**5000)),"
            " expressible(BoundedFinite(10**400, 3), 5))\n"
            "try:\n"
            "    max_finite(huge)\n"
            "except InvalidArgument as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        # expressible(BoundedFinite(10**8, 10), 5) ran past 10 s when it built the power.
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=5
        )
        assert (proc.returncode, proc.stdout) == (0, "True True True\nInvalidArgument\n")
