"""Public paths that no other test runs, each pinned to the outcome it has.

A line tracer run over the rest of the suite found these lines never
executed: the refusals of operands and arguments of the wrong type, the
leading term of a nonzero value, ``finite`` of a GrossNumber subclass,
``str`` of a piece and of a measurement, ``max_finite`` of a system kind
the package does not know, a function with no value at 1, an
incomparable probe of a defined numeral, and the forms ``format_defined``
writes for functions that ``parse_defined`` does not read.
"""

from fractions import Fraction

import pytest

from grossone.derived import (
    INCOMPARABLE,
    Affine,
    ExpBase,
    MonotoneFn,
    cmp_defined,
    define_by_inverse,
    format_defined,
    parse_defined,
)
from grossone.errors import InvalidArgument, NoFiniteNumerals, ParseError
from grossone.gnum import GROSSONE, GrossNumber, finite, parse_numeral
from grossone.measure import AffinePiece, Measurement, canonical_measurement, transport
from grossone.numeral_system import NumeralSystem, max_finite
from grossone.sets import parse_set_expression

X = 3 * GROSSONE - 1


# ---------------------------------------------------------------- gnum


@pytest.mark.parametrize(
    "operation, symbol",
    [
        (lambda: X + "a", "+"),
        (lambda: "a" - X, "-"),
        (lambda: X * None, "*"),
        (lambda: X / "a", "/"),
    ],
    ids=["add", "rsub", "mul", "truediv"],
)
def test_an_operand_of_no_number_type_is_refused(operation, symbol):
    with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \{symbol}: "):
        operation()


def test_a_gross_number_is_not_equal_to_a_string():
    assert (X == "a") is False
    assert (X != "a") is True


def test_the_leading_term_of_a_nonzero_value():
    assert X.leading() == (1, 3)
    assert parse_numeral("-1/2").leading() == (0, Fraction(-1, 2))


def test_finite_returns_a_gross_number_subclass_unchanged():
    class Marked(GrossNumber):
        pass

    value = Marked(((1, 2),))
    assert finite(value) is value


# ---------------------------------------------------------------- measure


MEASUREMENT = canonical_measurement(parse_set_expression("[1..3]|[10..①]"))


def test_a_piece_needs_an_interval_domain():
    with pytest.raises(TypeError, match="^domain must be a GrossInterval$"):
        AffinePiece(domain=(1, 3), offset=0)


def test_a_measurement_needs_pieces():
    with pytest.raises(TypeError, match="^pieces must be AffinePiece values$"):
        Measurement(MEASUREMENT.mu, ("x",), MEASUREMENT.target)


def test_transport_needs_pieces():
    with pytest.raises(TypeError, match="^bijection must consist of AffinePiece values$"):
        transport(MEASUREMENT, ["x"])


def test_a_piece_and_a_measurement_as_text():
    assert [str(piece) for piece in MEASUREMENT.pieces] == ["[1..3] -> [1..3]", "[4..①-6] -> [10..①]"]
    assert str(MEASUREMENT) == "mu ①-6\npiece 1 3\npiece 4 ①-6 6\ntarget [1..3]\ntarget [10..①]"


# ---------------------------------------------------------------- numeral_system


def test_max_finite_of_an_unknown_system_kind():
    class Silent(NumeralSystem):
        def can_express(self, x):
            return False

    with pytest.raises(NoFiniteNumerals, match="expresses no finite positive integer$"):
        max_finite(Silent())


# ---------------------------------------------------------------- derived


class Nowhere(MonotoneFn):
    def evaluate(self, x):
        return None


class Identity(MonotoneFn):
    def evaluate(self, x):
        return x


def test_a_function_with_no_value_at_one_defines_nothing():
    with pytest.raises(InvalidArgument, match="^g must be evaluable at 1$"):
        define_by_inverse(Nowhere(), 7)


def test_an_exponential_probed_past_a_non_integer_infinite_point():
    d = define_by_inverse(ExpBase(2), GROSSONE)
    assert cmp_defined(d, parse_numeral("①+1/2")) is INCOMPARABLE


def test_the_forms_written_for_functions_parse_defined_does_not_read():
    affine = define_by_inverse(Affine(2, 1), 7)
    assert format_defined(affine) == "invfloor(affine 2 1, 7)"
    with pytest.raises(ParseError) as info:
        parse_defined(format_defined(affine))
    assert info.value.args[0].startswith("unrecognized function 'affine'")
    assert info.value.position == 9
    assert format_defined(define_by_inverse(Identity(), 7)) == "invfloor(?, 7)"
