"""An error that names a value keeps its type when the value is too long to write out.

The message then holds a short stand-in for the value, and a
NotExpressible error still carries the value itself and the system.
"""

import json
from fractions import Fraction

import pytest

from grossone.cli import main
from grossone.errors import (
    EmptyIntervalRejected,
    InvalidArgument,
    NonIntegerEndpoint,
    NotASubset,
    NotExact,
    NotExpressible,
    NotSubsetOfRange,
    OverlappingTargets,
)
from grossone.gnum import GROSSONE, GrossNumber, div_exact, finite
from grossone.measure import canonical_measurement, complement_measurement, concat
from grossone.numeral_system import measure_in, parse_system
from grossone.sets import IntervalSet, interval, is_final_segment, is_initial_segment, make_set

LONG = 10**5000


def test_an_inexact_quotient_of_a_long_value_is_not_exact():
    with pytest.raises(NotExact) as info:
        div_exact(finite(LONG) * GROSSONE + 1, GROSSONE + 2)
    assert str(info.value) == "①+2 does not divide a numeral too long to write out"


def test_a_long_value_outside_a_system_is_not_expressible():
    with pytest.raises(NotExpressible) as info:
        measure_in(parse_system("finite:2:10"), make_set([interval(LONG, LONG)]))
    assert info.value.value == LONG - 1
    assert info.value.system_name == "finite:2:10"
    assert str(info.value) == "a numeral too long to write out is not expressible in finite:2:10"


def test_the_cli_envelope_leaves_out_a_value_too_long_to_write(capsys):
    code = main(["measure", "--format", "json", "--system", "finite:2:10", f"reflect([1..1], {'9' * 4300})"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1
    assert error == {
        "type": "NotExpressible",
        "message": "a numeral too long to write out is not expressible in finite:2:10",
        "system": "finite:2:10",
    }


# Each error below names a value at LONG in its message, and keeps its own type.


def test_a_long_fractional_endpoint_is_no_integer_endpoint():
    with pytest.raises(NonIntegerEndpoint, match="^lower endpoint a numeral too long to write out is not"):
        interval(finite(LONG) + Fraction(1, 2), finite(LONG) + 1)


def test_a_long_reversed_interval_is_empty():
    with pytest.raises(EmptyIntervalRejected) as info:
        interval(finite(LONG) + 5, finite(LONG))
    assert str(info.value) == (
        "[a numeral too long to write out..a numeral too long to write out] has no elements"
    )


def test_a_long_part_outside_the_range_is_no_subset_of_it():
    for test in (is_initial_segment, is_final_segment):
        with pytest.raises(NotSubsetOfRange) as info:
            test(make_set([interval(LONG, LONG)]), 5)
        assert str(info.value) == "a numeral too long to write out is not a subset of [1..5]"


def test_long_targets_that_overlap_do_not_concatenate():
    m = canonical_measurement(make_set([interval(LONG, LONG + 1)]))
    with pytest.raises(OverlappingTargets, match="^targets share a numeral too long"):
        concat(m, m)


def test_a_long_part_outside_the_whole_is_no_subset():
    whole = canonical_measurement(make_set([interval(1, 3)]))
    part = canonical_measurement(make_set([interval(LONG, LONG)]))
    with pytest.raises(NotASubset, match="^a numeral too long to write out is not a subset of "):
        complement_measurement(whole, part)


def test_a_long_value_of_no_numeric_type_is_no_gross_number():
    with pytest.raises(TypeError, match="^cannot interpret a numeral too long to write out as a gross-number$"):
        finite([LONG])


def test_a_long_malformed_term_is_an_invalid_argument():
    with pytest.raises(InvalidArgument, match="^malformed term a numeral too long to write out$"):
        GrossNumber(((0, LONG, 1),))


def test_a_long_value_is_no_part_of_a_set():
    with pytest.raises(TypeError, match="^parts must be GrossInterval, got a numeral too long"):
        IntervalSet((LONG,))
