"""An error that names a value keeps its type when the value is too long to write out.

The message then holds a short stand-in for the value, and a
NotExpressible error still carries the value itself and the system.
"""

import json

import pytest

from grossone.cli import main
from grossone.errors import NotExact, NotExpressible
from grossone.gnum import GROSSONE, div_exact, finite
from grossone.numeral_system import measure_in, parse_system
from grossone.sets import interval, make_set

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
