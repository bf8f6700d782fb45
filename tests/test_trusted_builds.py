"""Measurements the library proves by construction are built once, unchecked, and are still bijections.

``canonical_measurement`` (and through it ``complement_measurement``,
``intersection_split`` and ``measure_in``) and ``concat`` build their results with
``measure._proven``, which runs no validator.  ``_from_rows``, the reader
under ``from_text`` and ``from_json``, also builds through it, after
checking the runs it read once with the validator's own check
(``tests/test_read_once.py`` compares it with a reader that validates
every piece).  Each result must equal what the validating constructor
makes of the same mu, pieces and target; the trusted builder stays inside
``measure`` with exactly those three callers; and an operand that is not
the library's own type is refused before anything is built.
"""

import ast
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from grossone.errors import NotExpressible
from grossone.gnum import GrossNumber, finite
from grossone.measure import (
    Measurement,
    canonical_measurement,
    complement_measurement,
    concat,
    intersection_split,
)
from grossone.numeral_system import BoundedFinite, GrossBudget, Piraha, measure_in
from grossone.sets import GrossInterval, difference, interval, intersect, make_set, map_affine, union

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"


def assert_validated(m):
    """``m`` is a Measurement that the full validator rebuilds unchanged."""
    assert type(m) is Measurement
    assert Measurement(m.mu, m.pieces, m.target) == m
    for piece in m.pieces:
        assert type(piece.domain) is GrossInterval and type(piece.offset) is GrossNumber
        assert type(piece.domain.lo) is GrossNumber and type(piece.domain.hi) is GrossNumber


def random_set(rng: Random):
    return oracles.random_symbolic_set(rng) if rng.random() < 0.4 else oracles.random_finite_set(rng, -50, 300)


@seed(18019)
@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_every_trusted_result_passes_the_validator(n):
    rng = Random(n)
    a, b = random_set(rng), random_set(rng)
    m_a = canonical_measurement(a)
    assert_validated(m_a)
    rest = difference(b, a)
    if not rest.is_empty:
        m_rest = canonical_measurement(rest)
        assert_validated(m_rest)
        joined = concat(m_a, m_rest)
        assert_validated(joined)
        assert joined.target == union(a, b)
        assert_validated(concat(m_rest, m_a))
        assert_validated(complement_measurement(joined, m_a))
    moved = map_affine(a, 1, rng.randint(1, 5))
    if not intersect(a, moved).is_empty and moved != a:
        for part in intersection_split(m_a, canonical_measurement(moved)):
            assert_validated(part)
    # Parts inside [1..3], so that the two-numeral system admits some.
    tiny = oracles.random_finite_set(rng, 1, 3, 2)
    for sys_, s in ((Piraha(), tiny), (BoundedFinite(3), a), (GrossBudget(2, 3, 1), a)):
        try:
            assert_validated(measure_in(sys_, s))
        except NotExpressible:
            pass


# ---------------------------------------------------------------- where the trusted builder is named


def sites(source: str, name: str) -> tuple[bool, set[str]]:
    """Whether ``source`` defines ``name``, and the top-level definitions that name it.

    A use at module level is reported as ``"<module>"``; a name, an
    attribute and an imported name all count.
    """
    tree = ast.parse(source)
    defined = False
    users = set()
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                defined = True
            elif (
                isinstance(node, ast.Name)
                and node.id == name
                or isinstance(node, ast.Attribute)
                and node.attr == name
                or isinstance(node, ast.alias)
                and name in (node.name, node.asname)
            ):
                users.add(where)
    return defined, users


def test_the_site_finder_sees_every_way_of_naming():
    snippet = (
        "from .measure import _proven as trusted\n"
        "def helper():\n"
        "    return measure._proven(1, [], None)\n"
        "def other():\n"
        "    return _proven\n"
        "class Holder:\n"
        "    def _proven(self):\n"
        "        pass\n"
    )
    assert sites(snippet, "_proven") == (True, {"<module>", "helper", "other"})
    assert sites("def f():\n    return 1\n", "_proven") == (False, set())


def test_only_measure_defines_the_trusted_builder_and_two_constructions_call_it():
    for path in sorted(SOURCE.glob("*.py")):
        defined, users = sites(path.read_text(encoding="utf-8"), "_proven")
        if path.name == "measure.py":
            assert defined and users == {"canonical_measurement", "concat", "_from_rows"}
        else:
            assert not defined and users == set(), path.name


# ---------------------------------------------------------------- impostors


def test_canonical_measurement_refuses_a_set_of_another_type():
    # Overlapping parts: no set of the library could hold them.
    duck = SimpleNamespace(is_empty=False, parts=(interval(1, 3), interval(2, 5)))
    with pytest.raises(TypeError, match="^expected an IntervalSet, got SimpleNamespace$"):
        canonical_measurement(duck)
    with pytest.raises(TypeError):
        canonical_measurement([interval(1, 3)])
    with pytest.raises(TypeError, match="^expected an IntervalSet, got list$"):
        measure_in(Piraha(), [1])


def test_concat_refuses_an_operand_of_another_type():
    m = canonical_measurement(make_set([interval(1, 3)]))
    # Its pieces cover [1..3], but it claims the target [100..102].
    duck = SimpleNamespace(mu=finite(3), pieces=m.pieces, target=make_set([interval(100, 102)]))
    with pytest.raises(TypeError, match="^expected two Measurements, got Measurement and SimpleNamespace$"):
        concat(m, duck)
    with pytest.raises(TypeError, match="^expected two Measurements, got SimpleNamespace and Measurement$"):
        concat(duck, m)
