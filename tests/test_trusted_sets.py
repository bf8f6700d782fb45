"""Sets the set sweeps prove canonical are built once, unchecked, and are still canonical.

``union``, ``intersect``, ``difference`` and ``make_set`` build their parts
with ``sets._span`` and their sets with ``sets._canonical``, which run no
validator.  Each result must equal what the validating constructors make of
the same endpoints and agree with a model; ``is_subset`` must answer as the
full difference would; the two builders stay inside ``sets`` with only the
sweeps as callers; and an operand that is not an IntervalSet, or an item of
``make_set`` that is not an interval, is refused before anything is built.
"""

from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from grossone.gnum import GrossNumber, classify
from grossone.sets import (
    EMPTY,
    GrossInterval,
    IntervalSet,
    cardinality,
    contains,
    convex_hull,
    difference,
    intersect,
    interval,
    is_subset,
    make_set,
    map_affine,
    parse_set_expression,
    union,
)
from test_trusted_builds import sites

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"


def assert_canonical(s):
    """``s`` is an IntervalSet that the validating constructors rebuild unchanged."""
    assert type(s) is IntervalSet
    assert IntervalSet(tuple(GrossInterval(p.lo, p.hi) for p in s.parts)) == s
    for part in s.parts:
        assert type(part) is GrossInterval
        assert type(part.lo) is GrossNumber and type(part.hi) is GrossNumber


def random_set(rng: Random) -> IntervalSet:
    """A finite set, a set with a tail near ①, its mirror image near -①, or the empty set."""
    roll = rng.random()
    if roll < 0.1:
        return EMPTY
    if roll < 0.55:
        return oracles.random_finite_set(rng, -20, 120, 6)
    symbolic = oracles.random_symbolic_set(rng)
    return map_affine(symbolic, -1, rng.randint(-5, 5)) if roll < 0.7 else symbolic


def probes(*sets):
    """Every endpoint of the sets and its neighbours: where membership can change."""
    for s in sets:
        for part in s.parts:
            for end in (part.lo, part.hi):
                yield from (end - 1, end, end + 1)


OPERATIONS = (
    (union, lambda x, y: x or y, lambda m, n: m | n),
    (intersect, lambda x, y: x and y, lambda m, n: m & n),
    (difference, lambda x, y: x and not y, lambda m, n: m - n),
)


@seed(20020)
@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_every_sweep_result_is_canonical_and_agrees_with_the_models(n):
    rng = Random(n)
    a, b = random_set(rng), random_set(rng)
    both_finite = all(classify(end).is_finite for p in a.parts + b.parts for end in (p.lo, p.hi))
    for operation, member, model in OPERATIONS:
        got = operation(a, b)
        assert_canonical(got)
        for x in probes(a, b, got):
            assert contains(got, x) == member(contains(a, x), contains(b, x)), (operation.__name__, x)
        if both_finite:
            assert oracles.set_model(got) == model(oracles.set_model(a), oracles.set_model(b))
    pieces = list(a.parts + b.parts)
    rng.shuffle(pieces)
    merged = make_set(pieces)
    assert_canonical(merged)
    assert merged == union(a, b)
    parsed = parse_set_expression(f"({a}) | ({b}) \\ ({b}) & ({a})")
    assert_canonical(parsed)
    assert parsed == difference(union(a, b), intersect(b, a))


@seed(20021)
@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_is_subset_answers_as_the_whole_difference_would(n):
    rng = Random(n)
    a, b = random_set(rng), random_set(rng)
    for x, y in ((a, b), (b, a), (a, union(a, b)), (intersect(a, b), b), (a, a), (EMPTY, a)):
        assert is_subset(x, y) == difference(x, y).is_empty


# ---------------------------------------------------------------- impostors


@pytest.mark.parametrize("operation", [union, intersect, difference, is_subset])
def test_the_set_operations_refuse_an_operand_of_another_type(operation):
    s = make_set([interval(1, 3)])
    # Unsorted parts: no set of the library could hold them.
    duck = SimpleNamespace(is_empty=False, parts=(interval(5, 9), interval(1, 2)))
    with pytest.raises(TypeError, match="^expected an IntervalSet, got SimpleNamespace$"):
        operation(s, duck)
    with pytest.raises(TypeError, match="^expected an IntervalSet, got list$"):
        operation([interval(1, 3)], s)
    with pytest.raises(TypeError, match="^expected an IntervalSet, got NoneType$"):
        operation(None, None)


@pytest.mark.parametrize(
    "read",
    [lambda s: contains(s, 2), cardinality, convex_hull, lambda s: map_affine(s, 1, 0)],
    ids=["contains", "cardinality", "convex_hull", "map_affine"],
)
def test_the_set_readers_refuse_an_operand_of_another_type(read):
    with pytest.raises(TypeError, match="^expected an IntervalSet, got list$"):
        read([interval(1, 3)])


def test_the_set_operators_refuse_an_operand_of_another_type():
    s = make_set([interval(1, 3)])
    for apply in (lambda: s | [interval(1, 3)], lambda: s & (), lambda: s - 1):
        with pytest.raises(TypeError, match="^expected an IntervalSet, got "):
            apply()


@pytest.mark.parametrize(
    "items, shown",
    [([1], "1"), ([interval(1, 3), (4, 5)], r"\(4, 5\)"), ([None, interval(1, 3)], "None")],
)
def test_make_set_refuses_an_item_that_is_no_interval(items, shown):
    with pytest.raises(TypeError, match=f"^parts must be GrossInterval, got {shown}$"):
        make_set(items)


# ---------------------------------------------------------------- where the trusted builders are named


def test_the_site_finder_sees_the_set_builders():
    snippet = (
        "def _span(lo, hi):\n"
        "    return object.__new__(GrossInterval)\n"
        "def _cut(lo, part):\n"
        "    return _span(lo, part.hi)\n"
        "def union(a, b):\n"
        "    return sets._canonical(a.parts)\n"
    )
    assert sites(snippet, "_span") == (True, {"_cut"})
    assert sites(snippet, "_canonical") == (False, {"union"})


def test_only_sets_defines_the_trusted_builders_and_only_the_sweeps_call_them():
    expected = {
        "_span": {"_cut", "_coalesce", "_uncovered"},
        "_canonical": {"_coalesce", "intersect", "difference"},
    }
    for path in sorted(SOURCE.glob("*.py")):
        for name, callers in expected.items():
            defined, users = sites(path.read_text(encoding="utf-8"), name)
            if path.name == "sets.py":
                assert defined and users == callers, name
            else:
                assert not defined and users == set(), (path.name, name)
