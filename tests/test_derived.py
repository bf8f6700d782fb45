"""Inverse-defined numbers: resolution, partial comparison, session bounds."""

import json
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.derived import (
    INCOMPARABLE,
    Affine,
    DefinitionSession,
    ExpBase,
    Pow,
    cmp_defined,
    define_by_inverse,
    format_defined,
    parse_defined,
    resolve_finite,
)
from grossone.errors import BelowRange, BoundExceeded, InvalidArgument, NotFinite, ParseError
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


class TestDefinition:
    def test_token_carries_its_data(self):
        d = define_by_inverse(Pow(2), GROSSONE)
        assert d.g == Pow(2) and d.kappa == GROSSONE

    def test_threshold_below_the_first_value(self):
        with pytest.raises(BelowRange):
            define_by_inverse(Pow(2), finite(0))
        with pytest.raises(BelowRange):
            define_by_inverse(ExpBase(2), finite(1))

    def test_threshold_exactly_at_the_first_value(self):
        assert resolve_finite(define_by_inverse(Pow(2), finite(1))) == 1
        assert resolve_finite(define_by_inverse(ExpBase(2), finite(2))) == 1

    def test_kappa_must_be_integral(self):
        with pytest.raises(ValueError):
            define_by_inverse(Pow(2), parse_numeral("3/2"))

    def test_function_validation(self):
        with pytest.raises(ValueError):
            Pow(1)
        with pytest.raises(ValueError):
            ExpBase(1)
        with pytest.raises(ValueError):
            Affine(Fraction(0), Fraction(1))


class TestFiniteResolution:
    @pytest.mark.parametrize(
        "g, kappa, want",
        [
            (Pow(2), 100, 10),
            (Pow(2), 99, 9),
            (Pow(2), 101, 10),
            (Pow(3), 26, 2),
            (Pow(3), 27, 3),
            (ExpBase(2), 1024, 10),
            (ExpBase(2), 1023, 9),
            (ExpBase(10), 999999, 5),
            (Affine(Fraction(3), Fraction(1)), 10, 3),
        ],
    )
    def test_known_values(self, g, kappa, want):
        assert resolve_finite(define_by_inverse(g, finite(kappa))) == want

    @given(st.integers(1, 200_000))
    def test_square_root_floor_matches_linear_scan(self, kappa):
        got = resolve_finite(define_by_inverse(Pow(2), finite(kappa)))
        assert got == oracles.linear_scan_inverse(lambda x: x * x, kappa)

    @given(st.integers(10, 50_000), st.sampled_from([2, 3, 10]))
    def test_log_floor_matches_linear_scan(self, kappa, base):
        # kappa >= 10 >= base keeps the threshold at or above g(1).
        got = resolve_finite(define_by_inverse(ExpBase(base), finite(kappa)))
        assert got == oracles.linear_scan_inverse(lambda x: base**x, kappa)

    def test_boundaries_around_perfect_powers(self):
        for root in [2, 3, 10, 31, 999, 1000]:
            square = root * root
            assert resolve_finite(define_by_inverse(Pow(2), finite(square))) == root
            assert resolve_finite(define_by_inverse(Pow(2), finite(square - 1))) == root - 1
            assert resolve_finite(define_by_inverse(Pow(2), finite(square + 1))) == root

    def test_infinite_threshold_cannot_be_resolved(self):
        with pytest.raises(NotFinite):
            resolve_finite(define_by_inverse(Pow(2), GROSSONE))


class TestPartialComparison:
    def test_square_root_of_the_unit_tops_any_finite_probe(self):
        d = define_by_inverse(Pow(2), GROSSONE)
        for probe in [1, 1000, 10**6]:
            assert cmp_defined(d, finite(probe)) == Sign.POSITIVE

    def test_but_stays_below_the_unit(self):
        d = define_by_inverse(Pow(2), GROSSONE)
        assert cmp_defined(d, GROSSONE) == Sign.NEGATIVE

    def test_probe_function_values_are_finite_where_claimed(self):
        g = Pow(2)
        value = g.evaluate(finite(10**6))
        assert value == finite(10**12)
        assert classify(value).is_finite
        assert cmp(value, GROSSONE) == Sign.NEGATIVE

    def test_log_of_the_unit_is_incomparable_at_the_unit(self):
        d = define_by_inverse(ExpBase(2), GROSSONE)
        assert cmp_defined(d, GROSSONE) is INCOMPARABLE

    def test_log_of_the_unit_beats_finite_probes(self):
        d = define_by_inverse(ExpBase(2), GROSSONE)
        assert cmp_defined(d, finite(50)) == Sign.POSITIVE

    def test_equality_detection(self):
        d = define_by_inverse(Pow(2), finite(100))
        assert cmp_defined(d, finite(10)) == Sign.ZERO
        assert cmp_defined(d, finite(9)) == Sign.POSITIVE
        assert cmp_defined(d, finite(11)) == Sign.NEGATIVE

    @given(st.integers(1, 5000), st.integers(1, 80))
    def test_consistency_with_resolution_at_finite_thresholds(self, kappa, probe):
        d = define_by_inverse(Pow(2), finite(kappa))
        resolved = resolve_finite(d)
        assert cmp_defined(d, finite(probe)) == cmp(resolved, finite(probe))

    def test_transitive_across_a_ladder_of_probes(self):
        rng = Random(7)
        d = define_by_inverse(Pow(3), finite(rng.randint(10**5, 10**6)))
        probes = sorted(rng.sample(range(1, 200), 12))
        outcomes = [cmp_defined(d, finite(y)) for y in probes]
        # Once the comparison turns negative it must stay negative.
        seen_negative = False
        for outcome in outcomes:
            if seen_negative:
                assert outcome == Sign.NEGATIVE
            if outcome == Sign.NEGATIVE:
                seen_negative = True

    def test_growth_gap_at_infinite_probes_is_infinite(self):
        gap = Pow(2).evaluate(GROSSONE + 1) - Pow(2).evaluate(GROSSONE)
        assert gap == 2 * GROSSONE + 1
        assert classify(gap).is_infinite

    def test_incomparable_is_a_singleton_value(self):
        assert INCOMPARABLE is type(INCOMPARABLE)()
        assert repr(INCOMPARABLE) == "Incomparable"


class TestSession:
    def test_bound_is_enforced(self):
        session = DefinitionSession(max_definitions=3)
        for kappa in [100, 200, 300]:
            session.define(Pow(2), finite(kappa))
        assert len(session.defined) == 3
        with pytest.raises(BoundExceeded):
            session.define(Pow(2), finite(400))

    def test_rejected_definitions_do_not_count(self):
        session = DefinitionSession(max_definitions=2)
        with pytest.raises(BelowRange):
            session.define(Pow(2), finite(0))
        session.define(Pow(2), finite(5))
        session.define(Pow(2), finite(6))
        assert len(session.defined) == 2

    def test_configuration_validation(self):
        with pytest.raises(ValueError):
            DefinitionSession(max_definitions=0)


class TestTextForms:
    @pytest.mark.parametrize(
        "text",
        ["sqrtfloor(①)", "logfloor(2, ①)", "invfloor(pow 3, 1000)", "sqrtfloor(100)"],
    )
    def test_round_trip(self, text):
        d = parse_defined(text)
        assert format_defined(d) == text
        assert parse_defined(format_defined(d)) == d

    def test_ascii_rendering(self):
        d = parse_defined("sqrtfloor(G1)")
        assert format_defined(d, ascii_mode=True) == "sqrtfloor(G1)"
        assert format_defined(d) == "sqrtfloor(①)"

    @pytest.mark.parametrize(
        "bad",
        [
            "sqrtfloor",
            "sqrtfloor(",
            "logfloor(①)",
            "logfloor(x, 3)",
            "invfloor(exp 2, 3)",
            "invfloor(pow x, 3)",
            "frob(3)",
        ],
    )
    def test_rejections(self, bad):
        with pytest.raises(ParseError):
            parse_defined(bad)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            # int() refuses the Unicode minus sign, so the field is refused where it starts.
            ("logfloor(−2, 5)", "logfloor base must be an integer", 9),
            ("logfloor(x, 5)", "logfloor base must be an integer", 9),
            ("logfloor( +2x, 5)", "expected ','", 12),
            # The integer field ends at the '.', where the ',' is missing.
            ("invfloor(pow 2.5, 9)", "expected ','", 14),
            ("invfloor(pow " + "9" * (sys.get_int_max_str_digits() + 1) + ", 9)",
             "pow exponent must be an integer", 13),
        ],
    )
    def test_integer_fields_are_refused_where_they_start(self, text, message, position):
        with pytest.raises(ParseError) as caught:
            parse_defined(text)
        assert caught.value.args[0] == message
        assert caught.value.position == position

    def test_integer_fields_read_an_ascii_sign(self):
        # A signed field is read, and a value out of range is refused as an argument, not as text.
        assert format_defined(parse_defined("logfloor(+2, 5)")) == "logfloor(2, 5)"
        assert format_defined(parse_defined("invfloor(pow +3, 9)")) == "invfloor(pow 3, 9)"
        with pytest.raises(InvalidArgument, match="base must be at least 2"):
            parse_defined("logfloor(-2, 5)")
        with pytest.raises(InvalidArgument, match="exponent must be at least 2"):
            parse_defined("invfloor(pow -3, 9)")


# Probes and bounds on both sides of the bit-length shortcut: plain integers
# of either sign, a non-integer, and infinite and infinitesimal values.
size_probes = st.one_of(
    st.integers(-70, 70).map(finite),
    st.sampled_from(
        [finite(Fraction(1, 2)), finite(Fraction(-7, 3)), GROSSONE, GROSSONE + 1, -GROSSONE]
    ),
)
size_bounds = st.one_of(
    st.integers(-(10**30), 10**30).map(finite),
    st.integers(-9, 9).map(lambda n: finite(2**n if n >= 0 else -(2**-n))),
    st.sampled_from(
        [GROSSONE, -GROSSONE, GROSSONE**2 - 5, gross_term(1, -1), 7 - gross_term(1, -1)]
    ),
)


class TestPowerSizeBudget:
    """Huge powers at integer probes are placed from bit lengths, never built."""

    @seed(5)
    @given(st.integers(2, 9), size_probes, size_bounds)
    def test_pow_at_most_agrees_with_the_built_power(self, k, x, bound):
        assert Pow(k).at_most(x, bound) == (x**k <= bound)

    @seed(6)
    @given(st.integers(2, 9), size_probes, size_bounds)
    def test_exp_at_most_agrees_with_the_built_power(self, b, x, bound):
        value = ExpBase(b).evaluate(x)
        want = None if value is None else value <= bound
        assert ExpBase(b).at_most(x, bound) == want

    def test_huge_exponents_resolve_and_compare(self):
        d = define_by_inverse(Pow(10**9), finite(5))
        assert resolve_finite(d) == 1
        assert cmp_defined(d, finite(3)) == Sign.NEGATIVE
        assert cmp_defined(d, finite(-3)) == Sign.POSITIVE
        assert cmp_defined(define_by_inverse(Pow(10**9 + 1), finite(5)), finite(-3)) == Sign.POSITIVE
        assert cmp_defined(define_by_inverse(Pow(10**9), GROSSONE), finite(3)) == Sign.POSITIVE
        assert cmp_defined(define_by_inverse(ExpBase(2), finite(5)), finite(10**9)) == Sign.NEGATIVE

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("define", "invfloor(pow 1000000000, 5)"), "1\n"),
            (("define", "invfloor(pow 1000000000, 5)", "--cmp", "3"), "1\nnegative\n"),
        ],
    )
    def test_cli_answers_in_bounded_time(self, argv, text):
        # Building 2**(10**9) while doubling the probe took about 12 s.
        proc = subprocess.run(
            [sys.executable, "-m", "grossone", *argv], capture_output=True, text=True, timeout=5
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")


# Probes of one to three terms with fractional and negative exponents and
# coefficients, and bounds of the same shapes plus plain integers.
term_exponents = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
term_coefficients = st.one_of(
    st.integers(-9, 9).filter(bool), st.fractions(-9, 9, max_denominator=4).filter(bool)
)
sums = st.lists(st.tuples(term_exponents, term_coefficients), min_size=1, max_size=3).map(
    GrossNumber.from_terms
)


HUGE = "invfloor(pow 1000000000, ①)"


class TestPowAtNonIntegerProbes:
    """Leading exponents place x**k; past them it is built within a budget or refused."""

    @seed(12)
    @given(st.integers(2, 6), sums, st.one_of(sums, st.integers(-50, 50).map(finite)))
    def test_at_most_equals_building_the_power(self, k, x, bound):
        assert Pow(k).at_most(x, bound) == (x**k <= bound)

    @seed(13)
    @given(
        st.integers(1, 60),
        term_exponents,
        term_coefficients,
        st.sampled_from([1, 2, Fraction(1, 2), Fraction(1023, 1024), Fraction(1025, 1024)]),
        st.sampled_from([0, 1, -1]),
    )
    def test_one_term_placement_agrees_near_ties(self, k, exponent, coefficient, ratio, tail):
        # Bounds whose leading term is close to, or equal to, the power's.
        x = GrossNumber.from_terms([(exponent, coefficient)])
        lead = GrossNumber.from_terms([(exponent * k, coefficient**k * ratio)])
        bound = lead + gross_term(tail, exponent * k - 1)
        assert Pow(k + 1).at_most(x, bound) == (x ** (k + 1) <= bound)

    @pytest.mark.parametrize(
        "k, probe, bound",
        [
            (70000, "1/2", "5"),
            (70000, "3/2", "5"),
            (70000, "-3/2", "-5"),
            (1000000000, "1/2", "5"),
            (300, "①+1", "①^300"),
            (300, "①+1", "①^300+300①^299+①^298"),
            (200, "①-1/2", "①^200"),
            (40, "3/7①^(1/2)+5/11①^(1/3)+1/13", "①^20"),
            (100, "①^(1/2)+①^(1/3)+1", "①^50"),
        ],
    )
    def test_moderate_powers_are_answered(self, k, probe, bound):
        x, bound = parse_numeral(probe), parse_numeral(bound)
        want = x**k <= bound if k < 10**6 else True
        assert Pow(k).at_most(x, bound) == want

    def test_a_power_past_the_budget_is_refused(self):
        probe = parse_numeral("①^(1/1000000000)+1")
        with pytest.raises(InvalidArgument, match="too large to build"):
            Pow(10**9).at_most(probe, GROSSONE)

    @pytest.mark.parametrize(
        "definition, probe, code, text",
        [
            # These two answers came from building the power, which did not end in 6 s.
            (HUGE, "1/2", 0, f"{HUGE}\npositive\n"),
            (HUGE, "①+1", 0, f"{HUGE}\nnegative\n"),
            (HUGE, "①^(1/1000000000)", 1, ""),
            # Powers that build in well under a second are built, not refused.
            ("invfloor(pow 70000, 5)", "1/2", 0, "1\npositive\n"),
            ("invfloor(pow 300, ①^300)", "①+1", 0, "invfloor(pow 300, ①^300)\nnegative\n"),
        ],
    )
    def test_cli_answers_or_refuses_in_bounded_time(self, definition, probe, code, text):
        argv = ["define", definition, "--cmp", probe]
        proc = subprocess.run(
            [sys.executable, "-m", "grossone", *argv], capture_output=True, text=True, timeout=5
        )
        assert (proc.returncode, proc.stdout) == (code, text)

    def test_a_refusal_keeps_the_json_envelope(self):
        argv = ["define", "--format", "json", HUGE, "--cmp", "①^(1/1000000000)"]
        proc = subprocess.run(
            [sys.executable, "-m", "grossone", *argv], capture_output=True, text=True, timeout=5
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "InvalidArgument"


# Integer and fractional probes across [-5, 60].
probes_near_the_value = st.one_of(
    st.integers(-5, 60),
    st.fractions(-5, 60, max_denominator=7),
    st.integers(-5, 59).map(lambda n: Fraction(2 * n + 1, 2)),
)


class TestProbesThatAreNotPositiveGrossIntegers:
    """d >= 1 tops any probe below 1; a probe that is no gross-integer asks g once, above it."""

    @seed(14)
    @given(st.integers(2, 5), st.integers(1, 10**6), probes_near_the_value)
    def test_pow_agrees_with_the_resolved_value(self, k, kappa, y):
        d = define_by_inverse(Pow(k), finite(kappa))
        assert cmp_defined(d, finite(y)) == cmp(resolve_finite(d), finite(y))

    @seed(15)
    @given(st.integers(2, 10), st.integers(0, 10**18), probes_near_the_value)
    def test_exp_agrees_with_the_resolved_value(self, b, extra, y):
        d = define_by_inverse(ExpBase(b), finite(b + extra))
        assert cmp_defined(d, finite(y)) == cmp(resolve_finite(d), finite(y))

    @pytest.mark.parametrize(
        "probe, want",
        [
            ("①-1/2", Sign.POSITIVE),
            ("①+1/2", Sign.NEGATIVE),
            ("①-①^-1", Sign.POSITIVE),
            ("①+①^-1", Sign.NEGATIVE),
            ("①", Sign.ZERO),
            ("1/2", Sign.POSITIVE),
        ],
    )
    def test_the_square_root_of_the_unit_squared_is_the_unit(self, probe, want):
        d = define_by_inverse(Pow(2), GROSSONE**2)
        assert cmp_defined(d, parse_numeral(probe)) == want

    @pytest.mark.parametrize(
        "definition, probe, text",
        [
            ("sqrtfloor(10)", "5/2", "3\npositive\n"),
            ("sqrtfloor(①^2)", "①-1/2", "sqrtfloor(①^2)\npositive\n"),
            ("logfloor(2, 100)", "13/2", "6\nnegative\n"),
            ("logfloor(3, ①)", "7/2", "logfloor(3, ①)\npositive\n"),
            ("invfloor(pow 1000000000, 5)", "1/2", "1\npositive\n"),
        ],
    )
    def test_cli(self, definition, probe, text):
        argv = ["define", definition, "--cmp", probe]
        proc = subprocess.run(
            [sys.executable, "-m", "grossone", *argv], capture_output=True, text=True, timeout=5
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")
