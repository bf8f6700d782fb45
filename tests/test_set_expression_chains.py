"""Chains of set operators evaluate as the grammar says, and long chains take one sweep per halving.

'|' and '\\' bind equally and associate left, '&' binds tighter.  The parser
gathers the '|'/'\\' operands of a chain and evaluates them by halves: x is
in the value exactly when the last operand that holds x is the first
operand or a '|' operand.  The references here are a left fold of the same
expression over Python int sets and, for symbolic operands, a left fold
through ``union`` and ``difference``.
"""

import time
from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.gnum import GROSSONE
from grossone.sets import (
    EMPTY,
    IntervalSet,
    cardinality,
    difference,
    map_affine,
    parse_set_expression,
    union,
)


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


def random_chain(
    rng: Random, depth: int = 0, symbols: str = "|\\&", length: int | None = None
) -> tuple[str, set[int]]:
    """A chain of operands joined by ``symbols`` ('|', '\\' and '&' at random), and the set it denotes."""
    text, model = random_operand(rng, depth)
    # A pending '|' or '\' operand whose '&' meets are still being read.
    result, op, meet = set(), "|", model
    for _ in range(rng.randint(0, 7) if length is None else length):
        symbol = rng.choice(symbols)
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
        ("{}|[1..3]\\{2}", "[1..1]|[3..3]"),
        ("{}\\[1..3]|{5}\\{}", "[5..5]"),
        ("{}\\{}", "{}"),
        ("[1..9]\\{1}\\[3..4]\\{9}\\[6..7]", "[2..2]|[5..5]|[8..8]"),
        ("[1..①]\\{1}\\{①}\\[5..①-5]", "[2..4]|[①-4..①-1]"),
        ("{3}\\{3}|{3}\\{3}", "{}"),
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
    # 2-core machine with Python 3.11; by halves, they take milliseconds.
    assert elapsed < 2.0


@pytest.mark.parametrize("seed", range(6))
def test_backslash_heavy_and_long_chains_agree_with_a_left_fold_over_int_sets(seed):
    rng = Random(23010 + seed)
    for _ in range(40):
        # Half the chains draw three '\' to each '|' and '&'.
        symbols = "|\\\\\\&" if rng.random() < 0.5 else "|\\&"
        text, model = random_chain(rng, symbols=symbols, length=rng.randint(20, 60))
        got = parse_set_expression(text)
        assert oracles.set_model(got) == model, text
        assert IntervalSet(got.parts) == got


def random_symbolic_operand(rng: Random) -> IntervalSet:
    """A finite set, a set reaching a neighbourhood of ①, one of those moved by ①, or the empty set."""
    roll = rng.random()
    if roll < 0.05:
        return EMPTY
    s = oracles.random_symbolic_set(rng) if roll < 0.55 else oracles.random_finite_set(rng, 1, 250, 3)
    return map_affine(s, 1, GROSSONE) if rng.random() < 0.2 else s


@seed(23020)
@given(rng=st.randoms(use_true_random=False), length=st.integers(1, 40))
def test_symbolic_chains_equal_a_left_fold_through_union_and_difference(rng, length):
    operands = [random_symbolic_operand(rng) for _ in range(length)]
    kept = [True] + [rng.random() < 0.5 for _ in operands[1:]]
    text = "(" + str(operands[0]) + ")"
    want = operands[0]
    for keep, s in zip(kept[1:], operands[1:]):
        text += ("|" if keep else "\\") + "(" + str(s) + ")"
        want = union(want, s) if keep else difference(want, s)
    assert parse_set_expression(text) == want, text


def test_a_long_mixed_chain_takes_one_sweep_per_halving():
    pairs = 2000
    chain = "|".join(f"[{4 * k}..{4 * k + 2}]\\{{{4 * k + 1}}}" for k in range(pairs))
    listed = "{" + ",".join(str(4 * k + d) for k in range(pairs) for d in (0, 2)) + "}"
    started = time.perf_counter()
    got = parse_set_expression(chain)
    elapsed = time.perf_counter() - started
    assert got == parse_set_expression(listed)
    assert cardinality(got) == 2 * pairs
    # Folded left, each '\\' swept the whole union so far: 2,000 pairs took
    # about 10 s on a 2-core machine with Python 3.11.  By halves they take
    # a fraction of a second.
    assert elapsed < 2.0


def test_a_long_backslash_chain_takes_one_sweep_per_halving():
    subtrahends = 4000
    chain = f"[0..{3 * subtrahends}]" + "".join(f"\\{{{3 * k + 1}}}" for k in range(subtrahends))
    started = time.perf_counter()
    got = parse_set_expression(chain)
    elapsed = time.perf_counter() - started
    assert len(got.parts) == subtrahends + 1
    assert cardinality(got) == 2 * subtrahends + 1
    assert all(3 * k + 1 not in got for k in range(subtrahends))
    # Folded left, each '\\' swept the whole result so far: 4,000
    # subtrahends took about 5 s on the same machine.
    assert elapsed < 2.0
