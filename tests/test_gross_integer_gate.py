"""One gross-integer rule: every way of asking it agrees with an all-terms reference.

Also the exact message of each integrality error, and the offset at which
``parse_system`` names a number field too long to read.
"""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from grossone.cli import main
from grossone.derived import DefinedNumeral, ExpBase, Pow
from grossone.errors import (
    InvalidArgument,
    InvalidMeasurement,
    NonIntegerEndpoint,
    NonIntegerOffset,
    ParseError,
)
from grossone.gnum import GrossNumber, classify, finite
from grossone.measure import AffinePiece, Measurement
from grossone.numeral_system import BoundedFinite, parse_system
from grossone.sets import GrossInterval, IntervalSet, map_affine


def integer_by_every_term(x: GrossNumber) -> bool:
    """The reference rule: no negative exponent and an integral exponent-0 coefficient."""
    return all(e > 0 or (e == 0 and Fraction(c).denominator == 1) for e, c in x.terms)


def reference_plain_int(x: GrossNumber) -> int | None:
    kind = classify(x)
    return x.as_int() if kind.is_finite and kind.is_integer else None


def fraction_typed(x: GrossNumber) -> GrossNumber:
    """The same value built directly with every entry a Fraction, integral ones included."""
    return GrossNumber(tuple((Fraction(e), Fraction(c)) for e, c in x.terms))


EXPONENTS = st.sampled_from([-2, -1, Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(7, 2)])
COEFFICIENTS = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
)
VALUES = st.lists(st.tuples(EXPONENTS, COEFFICIENTS), max_size=5).map(GrossNumber.from_terms)
# Mostly values with at most one term at exponent 0, where the plain integers live.
FINITE_LEANING = st.one_of(VALUES, st.lists(st.tuples(st.just(0), COEFFICIENTS), max_size=2).map(GrossNumber.from_terms))


@seed(20261101)
@given(VALUES)
def test_classify_integer_agrees_with_the_all_terms_rule(x):
    assert classify(x).is_integer == integer_by_every_term(x)
    assert classify(fraction_typed(x)).is_integer == integer_by_every_term(x)


@seed(20261102)
@given(FINITE_LEANING, st.integers(1, 3), st.sampled_from([2, 3, 10]))
def test_bounded_finite_can_express_agrees_with_classify(x, digits, base):
    n = reference_plain_int(x)
    expected = n is not None and abs(n) <= base**digits - 1
    system = BoundedFinite(digits, base)
    assert system.can_express(x) == expected
    assert system.can_express(fraction_typed(x)) == expected


@seed(20261103)
@given(FINITE_LEANING, st.sampled_from([2, 3, 10]))
def test_exp_base_evaluate_agrees_with_classify(x, b):
    n = reference_plain_int(x)
    expected = None if n is None or n < 0 else finite(b**n)
    assert ExpBase(b).evaluate(x) == expected
    assert ExpBase(b).evaluate(fraction_typed(x)) == expected


def test_fraction_typed_integers_read_as_plain_integers():
    three = GrossNumber(((0, Fraction(3)),))
    assert classify(three).is_integer
    assert BoundedFinite(1, 10).can_express(three)
    assert not BoundedFinite(1, 2).can_express(three)
    assert ExpBase(2).evaluate(three) == finite(8)
    assert ExpBase(2).evaluate(GrossNumber(((Fraction(1), Fraction(3)),))) is None


ONE_TWO = IntervalSet((GrossInterval(1, 2),))

INTEGRALITY_ERRORS = {
    "lower endpoint": (lambda: GrossInterval(Fraction(1, 2), 3), NonIntegerEndpoint,
                       "lower endpoint 1/2 is not a gross-integer"),
    "upper endpoint": (lambda: GrossInterval(1, Fraction(7, 2)), NonIntegerEndpoint,
                       "upper endpoint 7/2 is not a gross-integer"),
    "infinitesimal endpoint": (lambda: GrossInterval(1, GrossNumber(((1, 1), (-1, 1)))), NonIntegerEndpoint,
                               "upper endpoint ①+①^-1 is not a gross-integer"),
    "piece offset": (lambda: AffinePiece(GrossInterval(1, 2), Fraction(3, 2)), NonIntegerOffset,
                     "offset 3/2 is not a gross-integer"),
    "map_affine offset": (lambda: map_affine(ONE_TWO, 1, Fraction(3, 2)), NonIntegerOffset,
                          "offset 3/2 is not a gross-integer"),
    "kappa": (lambda: DefinedNumeral(Pow(2), Fraction(1, 2)), InvalidArgument,
              "kappa must be a gross-integer, got 1/2"),
    "mu": (lambda: Measurement(Fraction(1, 2), (AffinePiece(GrossInterval(1, 2), 0),), ONE_TWO),
           InvalidMeasurement, "mu must be a positive gross-integer, got 1/2"),
}


@pytest.mark.parametrize("name", list(INTEGRALITY_ERRORS))
def test_integrality_errors_carry_their_exact_message(name):
    build, error, message = INTEGRALITY_ERRORS[name]
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_interval_endpoints_are_both_read_before_either_is_checked():
    with pytest.raises(TypeError):
        GrossInterval(Fraction(1, 2), 3.0)


@pytest.mark.parametrize(
    "head, tail, position",
    [("finite:", ":10", 7), ("finite:9:", "", 9), ("gross:", ":1:1", 6), ("gross:1:", ":1", 8)],
)
def test_too_long_descriptor_field_is_named_at_its_offset(head, tail, position, capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter reads integers of any length")
    descriptor = head + "9" * (limit + 1) + tail
    with pytest.raises(ParseError) as info:
        parse_system(descriptor)
    assert (info.value.args[0], info.value.position) == ("bad system descriptor (number has too many digits)", position)
    assert main(["system", descriptor, "max-finite", "--format", "json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["position"]) == ("ParseError", position)
    assert "set_int_max_str_digits" not in error["message"]
