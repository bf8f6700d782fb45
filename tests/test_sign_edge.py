"""Order is an int inside the library; ``Sign`` is made only where a public function returns it.

``cmp``, ``GrossNumber.sign``, ``compare_measured`` and ``cmp_defined``
return ``Sign`` members, and the ordering operators return ``bool``.  No
module under ``src/grossone`` compares a value with a ``Sign`` member: an
internal reader orders values with the operators.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from grossone.derived import INCOMPARABLE, cmp_defined, parse_defined
from grossone.gnum import GROSSONE, ONE, ZERO, Sign, cmp, finite, parse_numeral
from grossone.measure import canonical_measurement, compare_measured
from grossone.sets import parse_set_expression

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"

VALUES = [ZERO, ONE, -ONE, GROSSONE, parse_numeral("①^2-3①+1/2"), parse_numeral("①^(-1)")]
OPERANDS = VALUES + [0, 1, -7, Fraction(1, 2), Fraction(-3, 4), True, False]
OPERATORS = [
    ("<", lambda x, y: x < y),
    ("<=", lambda x, y: x <= y),
    (">", lambda x, y: x > y),
    (">=", lambda x, y: x >= y),
]


@pytest.mark.parametrize("x", VALUES, ids=str)
@pytest.mark.parametrize("y", VALUES, ids=str)
def test_cmp_returns_a_sign_member(x, y):
    result = cmp(x, y)
    assert type(result) is Sign
    assert result is (Sign.NEGATIVE if x < y else Sign.POSITIVE if x > y else Sign.ZERO)


@pytest.mark.parametrize("x", VALUES, ids=str)
def test_sign_returns_a_sign_member(x):
    result = x.sign()
    assert type(result) is Sign
    assert result is cmp(x, ZERO)


@pytest.mark.parametrize(
    "first, second, expected",
    [
        ("[1..3]", "[1..5]", Sign.NEGATIVE),
        ("[1..5]", "[2..6]", Sign.ZERO),
        ("[1..①]", "[1..5]", Sign.POSITIVE),
    ],
)
def test_compare_measured_returns_a_sign_member(first, second, expected):
    result = compare_measured(
        canonical_measurement(parse_set_expression(first)),
        canonical_measurement(parse_set_expression(second)),
    )
    assert type(result) is Sign
    assert result is expected


@pytest.mark.parametrize(
    "probe, expected",
    [(Fraction(5, 2), Sign.POSITIVE), (3, Sign.ZERO), (4, Sign.NEGATIVE), (0, Sign.POSITIVE)],
)
def test_cmp_defined_returns_a_sign_member(probe, expected):
    result = cmp_defined(parse_defined("sqrtfloor(10)"), finite(probe))
    assert result is not INCOMPARABLE
    assert type(result) is Sign
    assert result is expected


@pytest.mark.parametrize("x", VALUES, ids=str)
@pytest.mark.parametrize("y", OPERANDS, ids=repr)
def test_ordering_operators_return_bool(x, y):
    order = int(cmp(x, finite(y)))
    for name, op in OPERATORS:
        forward, reflected = op(x, y), op(y, x)
        assert type(forward) is bool and type(reflected) is bool, name
        assert forward == {"<": order < 0, "<=": order <= 0, ">": order > 0, ">=": order >= 0}[name]
        assert reflected == {"<": order > 0, "<=": order >= 0, ">": order < 0, ">=": order <= 0}[name]


def test_ordering_against_a_string_is_a_type_error():
    for name, op in OPERATORS:
        with pytest.raises(TypeError):
            op(GROSSONE, "1")
        with pytest.raises(TypeError):
            op("1", GROSSONE)
    assert (GROSSONE == "①") is False
    assert (ONE != "1") is True


# ------------------------------------------------------------------ source guard


def _is_sign_member(node: ast.AST) -> bool:
    """``Sign.X`` or ``<module>.Sign.X``."""
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "Sign") or (
        isinstance(owner, ast.Attribute) and owner.attr == "Sign"
    )


def sign_comparisons(tree: ast.AST) -> list[int]:
    """Lines of comparisons (``==``, ``!=``, ``is``, ``<`` ...) with a ``Sign`` member on either side."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(map(_is_sign_member, [node.left, *node.comparators]))
    )


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_source_compares_no_value_with_a_sign_member(path):
    assert sign_comparisons(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_the_sign_guard_sees_every_form():
    code = (
        "if cmp(a, b) == Sign.POSITIVE:\n"
        "    pass\n"
        "ok = s != gnum.Sign.ZERO\n"
        "neg = Sign.NEGATIVE is x.sign()\n"
        "low = 0 < s <= Sign.ZERO\n"
        "x = Sign.POSITIVE\n"
        "y = a < b\n"
        "z = sign == 1\n"
        "w = Sign.POSITIVE if a > b else Sign.NEGATIVE\n"
    )
    assert sign_comparisons(ast.parse(code)) == [1, 3, 4, 5]
    assert len(sorted(SOURCE.glob("*.py"))) >= 9
