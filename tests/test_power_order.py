"""gnum's one two-power bracket, and the power placement and budget built on it.

``gnum._power_order`` reads the sign of ``|a|**k - |b|**j`` from bit
lengths; ``numeral_system._exceeds`` and ``derived`` both ask it, and a
probe's power is built only through ``Pow.evaluate``, which refuses past
the cost budget.
"""

import subprocess
import sys
import time
from fractions import Fraction

from hypothesis import given, seed
from hypothesis import strategies as st

from grossone.derived import Pow
from grossone.gnum import GROSSONE, _log2_floor, _power_order, parse_numeral
from grossone.numeral_system import _exceeds

# Magnitudes at, and next to, powers of two, and plain ones besides.
near_two_powers = st.builds(
    lambda n, step: 2**n + step, st.integers(0, 80), st.sampled_from([-1, 0, 1])
).filter(bool)
magnitudes = st.one_of(near_two_powers, st.integers(1, 10**30))
rationals = st.one_of(
    magnitudes,
    st.builds(Fraction, magnitudes, magnitudes),
    st.sampled_from([1, Fraction(1, 2), Fraction(3, 2), Fraction(1023, 1024), Fraction(1025, 1024)]),
)
signed = st.builds(lambda q, sign: sign * q, rationals, st.sampled_from([1, -1]))


def sign_of(n) -> int:
    return (n > 0) - (n < 0)


@seed(31)
@given(signed, st.integers(1, 40), signed, st.integers(1, 40))
def test_the_bracket_and_exceeds_agree_with_building_both_powers(a, k, b, j):
    for q in (a, b):
        f = _log2_floor(q)
        assert Fraction(2) ** f <= abs(q) < Fraction(2) ** (f + 1)
    order = _power_order(a, k, b, j)
    assert order in (-1, 1, None)
    if order is not None:
        assert order == sign_of(abs(a) ** k - abs(b) ** j)
    if type(a) is int and type(b) is int:
        assert _exceeds(abs(a), k, abs(b), j) == (abs(a) ** k > abs(b) ** j)


def test_the_bracket_settles_far_apart_powers_and_leaves_ties_open():
    assert _power_order(2, 10**9, 3, 1) == 1
    assert _power_order(Fraction(1, 2), 10**9, 5, 1) == -1
    assert _power_order(-4, 3, 8, 2) is None  # 4**3 == 8**2
    assert _power_order(1, 10**9, 1, 10**9) is None
    assert (_exceeds(0, 3, 5), _exceeds(5, 3, 0), _exceeds(0, 1, 0)) == (False, True, False)


def test_a_power_past_the_budget_is_refused_by_evaluate():
    # At the parent of this change, evaluate built (①+1)**(10**9) with no end in sight.
    code = (
        "from grossone.derived import Pow\n"
        "from grossone.errors import InvalidArgument\n"
        "from grossone.gnum import GROSSONE\n"
        "try:\n"
        "    Pow(10**9).evaluate(GROSSONE + 1)\n"
        "except InvalidArgument as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0,
        "(①+1)**1000000000 is too large to build for a comparison\n",
        "",
    )


def test_plain_integer_probes_and_small_powers_still_evaluate():
    assert Pow(3).evaluate(GROSSONE + 1) == parse_numeral("①^3+3①^2+3①+1")
    # 3**(10**6) is priced past the budget, but plain integers are built as before.
    assert Pow(10**6).evaluate(parse_numeral("3")) == 3 ** (10**6)


def test_opposite_leading_signs_settle_a_tie_of_exponents():
    # x**k leads with +①, the bound with -①: no power need be built or priced.
    start = time.perf_counter()
    assert Pow(10**9).at_most(parse_numeral("①^(1/1000000000)+1"), -GROSSONE) is False
    assert Pow(10**9 + 1).at_most(parse_numeral("-①^(1/1000000001)+1"), GROSSONE) is True
    assert time.perf_counter() - start < 1
