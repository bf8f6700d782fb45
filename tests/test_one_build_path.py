"""Each result is built one way.

Every ``AffinePiece`` a construction in ``measure`` makes comes from one
of two builders: ``_pieces`` validates the pieces of computed runs, and
``_proven`` builds those of a result proved by construction, or of
outside data that ``_from_rows`` has just checked with the validator's own
check, without validating them again (``tests/test_trusted_builds.py``
guards it).  So ``_pieces`` is the only caller of ``AffinePiece(``.  The
segment tests of ``sets`` read their answer off the set's only part after
one shared ``[1..bound]`` range check, so an error names the caller's set.
"""

import ast
import re
from pathlib import Path
from random import Random

import pytest

import oracles
from grossone.errors import NotSubsetOfRange
from grossone.gnum import GROSSONE, finite
from grossone.measure import AffinePiece, canonical_measurement, concat, invert_pieces, transport
from grossone.sets import (
    EMPTY,
    interval,
    is_final_segment,
    is_initial_segment,
    make_set,
    parse_set_expression,
)

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"


def functions_calling(path: Path, name: str) -> set[str]:
    """Names of the top-level functions and methods of ``path`` that call ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    callers = set()
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(outer):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name:
                    callers.add(outer.name)
    return callers


def test_only_the_two_builders_construct_pieces():
    assert functions_calling(SOURCE / "measure.py", "AffinePiece") == {"_pieces"}


def test_the_final_segment_test_reads_the_set_itself():
    calls = functions_calling(SOURCE / "sets.py", "map_affine") | functions_calling(
        SOURCE / "sets.py", "is_initial_segment"
    )
    assert "is_final_segment" not in calls


def test_a_final_segment_error_names_the_callers_set():
    with pytest.raises(NotSubsetOfRange) as info:
        is_final_segment(make_set([interval(0, 2)]), 5)
    assert str(info.value) == "[0..2] is not a subset of [1..5]"


def segment_model(elements: set[int], bound: int) -> tuple[int | None, int | None] | None:
    """(initial n, final n) of an int set inside [1..bound], or None if it is not inside."""
    if not elements <= set(range(1, bound + 1)):
        return None
    low, high = min(elements, default=None), max(elements, default=None)
    whole_run = bool(elements) and len(elements) == high - low + 1
    return (
        high if whole_run and low == 1 else None,
        low if whole_run and high == bound else None,
    )


@pytest.mark.parametrize("seed", range(6))
def test_segment_tests_agree_with_the_int_model(seed):
    rng = Random(seed)
    for _ in range(150):
        s = oracles.random_finite_set(rng, -2, 14, 3) if rng.random() < 0.9 else EMPTY
        bound = rng.randint(1, 12)
        expected = segment_model(oracles.set_model(s), bound)
        if expected is None:
            for test in (is_initial_segment, is_final_segment):
                with pytest.raises(NotSubsetOfRange, match=f"^{re.escape(str(s))} is not a subset"):
                    test(s, bound)
        else:
            assert (is_initial_segment(s, bound), is_final_segment(s, bound)) == expected


def test_segment_tests_on_symbolic_sets():
    s = parse_set_expression("[①-3..①]")
    assert is_final_segment(s) == GROSSONE - 3
    assert is_initial_segment(s) is None
    assert is_final_segment(s, GROSSONE + 1) is None
    assert is_initial_segment(make_set([interval(1, GROSSONE / 2)])) == GROSSONE / 2
    assert is_final_segment(parse_set_expression("[1..①]")) == 1


def test_concat_shifts_the_second_measurement_past_the_first():
    first = canonical_measurement(parse_set_expression("[1..3]|[10..12]"))
    rest = canonical_measurement(parse_set_expression("[20..①]"))
    joined = concat(first, rest)
    shifted = tuple(
        AffinePiece(interval(p.domain.lo + first.mu, p.domain.hi + first.mu), p.offset - first.mu)
        for p in rest.pieces
    )
    assert joined.pieces == first.pieces + shifted
    assert joined.mu == first.mu + rest.mu
    assert joined.apply(first.mu + 1) == 20


def test_inverted_pieces_map_images_back_in_order_of_their_domains():
    m = canonical_measurement(parse_set_expression("[5..7]|[-①..-①+2]|[①..2①]"))
    swap = transport(m, [AffinePiece(p, -p.lo + finite(100) * (i + 1)) for i, p in enumerate(m.target.parts)])
    for pieces in (m.pieces, swap.pieces):
        inverse = invert_pieces(pieces)
        expected = sorted((AffinePiece(p.image, -p.offset) for p in pieces), key=lambda p: p.domain.lo)
        assert inverse == tuple(expected)
        assert min(p.image.lo for p in inverse) == 1
