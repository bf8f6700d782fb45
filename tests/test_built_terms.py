"""Values the core computes are built canonical, and only gnum builds them so.

``gnum._built`` makes a GrossNumber without the public constructor's check
of its terms, so every result the core computes must pass that check as it
stands: strictly descending exponents, no zero coefficient, and each entry
an ``int`` when integral, else a ``Fraction``.  The ``ast`` guards keep
``_built`` inside gnum and keep gnum's own ``GrossNumber(...)`` calls to
its three constants.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from grossone.errors import NotExact
from grossone.gnum import (
    GrossNumber,
    div_exact,
    finite,
    format_numeral,
    gross_term,
    parse_numeral,
)

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"

exponents = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
# Zero coefficients and Fraction-typed integral ones included: from_terms
# must drop the first and hold the second as ints.
coefficients = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(-50, 50, max_denominator=9),
    st.integers(-9, 9).map(Fraction),
)
numbers = st.lists(st.tuples(exponents, coefficients), max_size=5).map(GrossNumber.from_terms)
plain = st.one_of(st.integers(-(10**12), 10**12), st.fractions(-50, 50, max_denominator=9), st.booleans())


def assert_checked(r):
    assert type(r) is GrossNumber
    assert GrossNumber(r.terms) == r  # raises InvalidArgument on a non-canonical term
    for entry in (value for term in r.terms for value in term):
        assert type(entry) is (int if entry.denominator == 1 else Fraction), r.terms


@seed(15015)
@settings(max_examples=200)
@given(numbers, numbers, st.integers(0, 3), plain, coefficients, exponents)
def test_every_computed_value_passes_the_public_check(x, y, k, n, c, e):
    results = [
        x,
        parse_numeral(format_numeral(x)),
        x + y,
        x - y,
        x * y,
        x**k,
        -x,
        x + n,
        n - x,
        finite(n),
        gross_term(c, e),
    ]
    if not y.is_zero:
        results.append(div_exact(x * y, y))
        try:
            results.append(div_exact(x, y))
        except NotExact:
            pass
    for r in results:
        assert_checked(r)


def test_exact_quotients_and_cancellations_are_canonical():
    x = parse_numeral("①^2-1")
    assert_checked(div_exact(x, parse_numeral("①+1")))
    assert_checked(x - x)
    assert_checked(gross_term(Fraction(0), 5))
    assert_checked(GrossNumber.from_terms([(Fraction(2), Fraction(3)), (2, -3), (Fraction(1, 2), 1)]))


def test_the_public_constructor_holds_outside_terms_like_built_ones():
    x = GrossNumber([(2, 2), (0, 1)])
    assert type(x.terms) is tuple
    assert_checked(x)
    assert x == parse_numeral("2①^2+1") and hash(x) == hash(parse_numeral("2①^2+1"))


# ------------------------------------------------------------------ source guards


def refers_to_built(tree: ast.AST) -> list[int]:
    """Lines naming ``_built``: a name, an attribute or an import."""
    found = []
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id == "_built")
            or (isinstance(node, ast.Attribute) and node.attr == "_built")
            or (isinstance(node, ast.ImportFrom) and any(a.name == "_built" for a in node.names))
        ):
            found.append(node.lineno)
    return sorted(found)


def refers_to_trusted_number(tree: ast.AST) -> list[int]:
    """Lines naming ``GrossNumber._trusted``, the unchecked number builder, also as ``gnum.GrossNumber._trusted``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_trusted":
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "GrossNumber") or (
                isinstance(owner, ast.Attribute) and owner.attr == "GrossNumber"
            ):
                found.append(node.lineno)
    return sorted(found)


def constructor_calls(tree: ast.Module) -> list[int]:
    """Lines calling ``GrossNumber(...)`` other than to bind ZERO, ONE or GROSSONE at module level."""
    constants = {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] in (["ZERO"], ["ONE"], ["GROSSONE"])
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in constants:
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "GrossNumber") or (
                isinstance(func, ast.Attribute) and func.attr == "GrossNumber"
            ):
                found.append(node.lineno)
    return sorted(found)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_only_gnum_refers_to_built():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 9
    outside = {p.name: refers_to_built(parse(p)) for p in modules if p.name != "gnum.py"}
    assert outside == {name: [] for name in outside}
    assert refers_to_built(parse(SOURCE / "gnum.py"))
    # Every other module boxes an int through gnum._from_int, which shares the small ones.
    outside = {p.name: refers_to_trusted_number(parse(p)) for p in modules if p.name != "gnum.py"}
    assert outside == {name: [] for name in outside}
    assert refers_to_trusted_number(parse(SOURCE / "gnum.py"))


def test_gnum_calls_the_public_constructor_only_for_its_constants():
    assert constructor_calls(parse(SOURCE / "gnum.py")) == []


def test_the_guards_see_every_form():
    code = (
        "ZERO = GrossNumber()\n"
        "ONE = GrossNumber(((0, 1),))\n"
        "x = GrossNumber(t)\n"
        "def f(t):\n"
        "    return gnum.GrossNumber(t)\n"
        "HALF = GrossNumber(((0, Fraction(1, 2)),))\n"
        "y = _built(t)\n"
        "from .gnum import _built\n"
        "z = gnum._built(t)\n"
        "w = GrossNumber.from_terms(t)\n"
        "def g():\n"
        "    ZERO = GrossNumber()\n"
        "v = GrossNumber._trusted(t)\n"
        "new = gnum.GrossNumber._trusted\n"
        "u = GrossInterval._trusted(a, b)\n"
    )
    tree = ast.parse(code)
    assert constructor_calls(tree) == [3, 5, 6, 12]
    assert refers_to_built(tree) == [7, 8, 9]
    assert refers_to_trusted_number(tree) == [13, 14]
