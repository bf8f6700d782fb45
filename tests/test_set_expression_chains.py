"""Chains of set operators evaluate as the grammar says, and a long '|' chain is merged once.

'|' and '\\' bind equally and associate left, '&' binds tighter.  The parser
gathers the operands of a run of '|' and merges them at a '\\' or at the
end; the reference here is a left fold of the same expression over
Python int sets.
"""

import time
from random import Random

import pytest

import oracles
from grossone.sets import IntervalSet, parse_set_expression


def random_operand(rng: Random, depth: int) -> tuple[str, set[int]]:
    """The text of a factor and its elements: an interval, an enumeration or a bracketed chain."""
    roll = rng.random()
    if roll < 0.15 and depth < 3:
        text, model = random_chain(rng, depth + 1)
        return f"({text})", model
    if roll < 0.35:
        elements = rng.sample(range(-5, 40), rng.randint(0, 4))
        return "{" + ",".join(map(str, elements)) + "}", set(elements)
    lo = rng.randint(-5, 40)
    hi = lo + rng.randint(0, 12)
    return f"[{lo}..{hi}]", set(range(lo, hi + 1))


def random_chain(rng: Random, depth: int = 0) -> tuple[str, set[int]]:
    """A chain of operands joined by '|', '\\' and '&', and the set it denotes."""
    text, model = random_operand(rng, depth)
    # A pending '|' or '\' operand whose '&' meets are still being read.
    result, op, meet = set(), "|", model
    for _ in range(rng.randint(0, 7)):
        symbol = rng.choice("|\\&")
        operand, value = random_operand(rng, depth)
        text += rng.choice(["", " "]) + symbol + rng.choice(["", " "]) + operand
        if symbol == "&":
            meet &= value
        else:
            result = result | meet if op == "|" else result - meet
            op, meet = symbol, value
    return text, result | meet if op == "|" else result - meet


@pytest.mark.parametrize("seed", range(8))
def test_chains_agree_with_a_left_fold_over_int_sets(seed):
    rng = Random(20030 + seed)
    for _ in range(150):
        text, model = random_chain(rng)
        got = parse_set_expression(text)
        assert oracles.set_model(got) == model, text
        assert IntervalSet(got.parts) == got


@pytest.mark.parametrize(
    "text, expected",
    [
        ("[1..9]|[20..30]\\[5..25]|[7..7]", "[1..4]|[7..7]|[26..30]"),
        ("[1..9]\\[3..4]|[3..3]", "[1..3]|[5..9]"),
        ("[1..9]|[20..30]&[25..40]", "[1..9]|[25..30]"),
        ("[1..3]|[4..6]|[8..8]|[7..7]", "[1..8]"),
        ("[1..①]|[5..7]\\{1}|[①+2..①+2]", "[2..①]|[①+2..①+2]"),
    ],
)
def test_union_and_difference_bind_equally_and_associate_left(text, expected):
    assert str(parse_set_expression(text)) == expected


def test_a_long_union_chain_equals_its_enumeration():
    parts = 2000
    chain = "|".join(f"[{3 * k}..{3 * k + 1}]" for k in range(parts))
    listed = "{" + ",".join(str(3 * k + d) for k in range(parts) for d in (0, 1)) + "}"
    started = time.perf_counter()
    got = parse_set_expression(chain)
    elapsed = time.perf_counter() - started
    assert got == parse_set_expression(listed)
    assert len(got.parts) == parts
    # Folded through one union per operand, 2,000 parts took about 16 s on a
    # 2-core machine with Python 3.11; merged once, they take milliseconds.
    assert elapsed < 2.0
