"""Numeral-system size tests are exact: they agree with decimal-digit oracles at every boundary.

Also the typed errors of the value constructors, the segment helpers' bound
checks, and the ASCII-digit rule for system descriptor fields.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from grossone.cli import main
from grossone.derived import Affine
from grossone.errors import InvalidArgument, NonIntegerEndpoint, NonIntegerOffset, ParseError
from grossone.geometry import halfplane_demo
from grossone.gnum import GROSSONE, finite, gross_term
from grossone.numeral_system import BoundedFinite, GrossBudget, max_finite, parse_system
from grossone.sets import (
    GrossInterval,
    IntervalSet,
    is_final_segment,
    is_initial_segment,
    union_initial_segments,
)

BASES = (2, 3, 7, 10, 16, 1000)


def has_at_most(m: int, digits: int) -> bool:
    """The oracle: ``m`` written in decimal, sign free, takes at most ``digits`` digits."""
    return len(str(abs(m))) <= digits


@st.composite
def near_a_power_of_ten(draw):
    """A digit budget and an integer 10**k - 1, 10**k or 10**k + 1 with k about the budget."""
    k = draw(st.integers(1, 400))
    m = 10**k + draw(st.sampled_from([-1, 0, 1]))
    return max(1, k + draw(st.sampled_from([-1, 0, 1]))), m


class TestGrossBudgetDigits:
    @seed(20261019)
    @given(near_a_power_of_ten(), st.sampled_from([1, -1]))
    def test_exponent(self, case, sign):
        budget, m = case
        assert GrossBudget(1, 1, budget).can_express(gross_term(1, sign * m)) == has_at_most(m, budget)

    @seed(20261020)
    @given(near_a_power_of_ten(), st.sampled_from([1, -1]))
    def test_numerator(self, case, sign):
        budget, m = case
        assert GrossBudget(1, budget, 1).can_express(finite(sign * m)) == has_at_most(m, budget)

    @seed(20261021)
    @given(near_a_power_of_ten())
    def test_denominator(self, case):
        budget, m = case
        assert GrossBudget(1, budget, 1).can_express(finite(Fraction(1, m))) == has_at_most(m, budget)


def limit_disagreements() -> list[tuple[int, int]]:
    """(base, digits) around the int-to-string limit where a size test disagrees with ``str``.

    ``parse_system`` must accept ``finite:<digits>:<base>``, and ``max_finite``
    answer ``base**digits - 1``, exactly when ``str`` writes that number out
    in at most the limit's digits.  Reads the process-wide limit, so a
    subprocess can run it under another one.
    """
    limit = sys.get_int_max_str_digits()
    out = []
    for base in BASES:
        edge = round(limit / math.log10(base))  # picks the digits to try; the oracle decides
        for digits in range(edge - 3, edge + 4):
            largest = base**digits - 1
            try:
                writable = len(str(largest)) <= limit
            except ValueError:
                writable = False
            try:
                parse_system(f"finite:{digits}:{base}")
                parsed = True
            except ParseError:
                parsed = False
            try:
                built = max_finite(BoundedFinite(digits, base)) == finite(largest)
            except InvalidArgument:
                built = False
            if parsed != writable or built != writable:
                out.append((base, digits))
    return out


class TestWritableLimit:
    def test_default_limit(self):
        assert limit_disagreements() == []

    def test_lowest_limit_in_a_subprocess(self):
        # The limit is process-wide, so it is lowered in a child only.
        code = (
            "import sys\n"
            "sys.set_int_max_str_digits(640)\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "from test_exact_sizes import limit_disagreements\n"
            "print(limit_disagreements())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "build",
    [
        lambda: GROSSONE.as_fraction(),
        lambda: finite(Fraction(1, 2)).as_int(),
        lambda: Affine(GROSSONE),
        lambda: halfplane_demo(GROSSONE, 0),
        lambda: BoundedFinite(0),
        lambda: BoundedFinite(3, 1),
        lambda: GrossBudget(1, 0, 1),
    ],
    ids=["as_fraction", "as_int", "Affine", "halfplane_demo", "digits", "base", "budget"],
)
def test_domain_errors_are_invalid_argument(build):
    with pytest.raises(InvalidArgument):
        build()


SEGMENT_HELPERS = {
    "is_initial_segment": (lambda b: is_initial_segment(IntervalSet((GrossInterval(1, 2),)), b), NonIntegerEndpoint),
    "is_final_segment": (lambda b: is_final_segment(IntervalSet((GrossInterval(2, 3),)), b), NonIntegerOffset),
    "union_initial_segments": (union_initial_segments, NonIntegerEndpoint),
}


@pytest.mark.parametrize("name", list(SEGMENT_HELPERS))
def test_segment_helpers_name_the_bound_they_were_given(name):
    helper, error = SEGMENT_HELPERS[name]
    for bound in (Fraction(7, 2), finite(Fraction(7, 2))):
        with pytest.raises(error, match=r"^bound 7/2 is not a gross-integer$"):
            helper(bound)
    with pytest.raises(error, match=r"^bound ①-1/2 is not a gross-integer$"):
        helper(GROSSONE - Fraction(1, 2))
    for bad in (3.5, 0.5):
        with pytest.raises(TypeError, match=rf"^cannot interpret {bad!r} "):
            helper(bad)


@pytest.mark.parametrize(
    "descriptor, position",
    [
        ("finite:1_0:10", 7),
        ("finite:٩:10", 7),
        ("finite: 9:10", 7),
        ("finite:+9:10", 7),
        ("finite:-1:10", 7),
        ("finite::10", 7),
        ("finite:9:1_0", 9),
        ("gross:2:3:+1", 10),
        ("gross:2:٣:1", 8),
    ],
)
def test_descriptor_fields_are_ascii_digits(descriptor, position, capsys):
    with pytest.raises(ParseError) as info:
        parse_system(descriptor)
    assert info.value.position == position
    assert main(["system", descriptor, "max-finite", "--format", "json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["position"]) == ("ParseError", position)
