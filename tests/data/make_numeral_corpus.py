"""Write ``numeral_corpus.json``: seeded numeral texts and what the parser makes of them.

Each entry holds a text, the result of ``parse_numeral`` on it and the
result of ``parse_numeral_prefix`` on it from a start position.  A result
is either ``{"terms": repr(value.terms)}`` (with ``"end"`` for a prefix) or
``{"error": message, "position": exc.position}`` for a ParseError, whose
text is always the parsed text, so that ``str(exc)`` is fixed too.  The
repr keeps each entry's exact type, so an ``int`` and an integral
``Fraction`` differ.  Run with the int-to-string digit limit at its default:

    PYTHONPATH=src python3 tests/data/make_numeral_corpus.py

The corpus records what the parser does; regenerate it only on purpose,
when the grammar itself changes, and from a checkout whose parser is the
one to record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

from grossone.errors import ParseError
from grossone.gnum import parse_numeral, parse_numeral_prefix

OUT = Path(__file__).resolve().parent / "numeral_corpus.json"
SEED = 20261019

#: Hand-picked edges of the grammar: spacing, fractions in exponents, decimals, digit limits.
EDGES = [
    "①^- 2", "① ^2", "1 /2", "1/ 2", "①^( - 1 / 2)", "1.5/2", "2.", "3①4",
    "①^(1/2", "1/0", "G1^2.5", "1/2.5", "①^1/2", "①^-1/2", "①^(-1/2)", "①^(−1/2)",
    "①^−2", "①^+2", "①^(+2)", "①^ 2", "①^ (2)", "①^(2 )", "①^( 2)", "①^()", "①^(",
    "①^", "①^-", "①^(-)", "①^(1/0)", "①^1/0", "①^1.5", "①^(1.5)", "①^(1.5/2)",
    "2*①", "2 * ①", "2 *①", "2* ①", "2*", "2* 3", "2*G", "2G1", "2 G1", "2 ①", "2①^2",
    "2/3①", "2/3*①^(1/3)", "0①", "0", "-0", "0/5", "00012", "1.50", "0.000", ".5", "1..2",
    "1.", "1.2.3", "-①", "−①", "+①", "- ①", "− ①", "--1", "+-1", "1+", "1 +", "1 + ",
    "1 - -1", "①+①", "① + ① - ①", "G1-G1", "G", "G2", "G1G1", "①①", "①1", "①^2①",
    "1/2/3", "1/-2", "-1/2", "(1)", "()", "", " ", "  1", "1  ", "\t1\t+\t①", "1 + ①",
    "1\n+\n①", "①^2 ^3", "①^(1/2)^2", "3/4①^(-5/3) + 2①^(5/3)", "1/1", "4/2", "6/4",
    "①^(4/2)", "①^(0)", "①^0", "①^-0", "5①^0", "1①^0 + 1", "①^(1/3) - ①^(1/3)",
    "x", "1x", "①x", "1 2", "1.5 2", "G1^(-5/3)", "G1 ^(2)", "G1^(2", "G1*2",
    "1/00", "1/007", "0/0", "1/0.5", "3①^(2/00)", "①^-5/000", "2/01①",
]

#: The digit-limit edges, built from the interpreter's default limit.
DIGITS = sys.int_info.default_max_str_digits
EDGES += [
    "7" * 5000,
    "7" * DIGITS,
    "7" * (DIGITS + 1),
    "1." + "7" * 5000,
    "7" * 3000 + "." + "7" * 3000,
    "1/" + "7" * 5000,
    "7" * 5000 + "/2",
    "①^" + "7" * 5000,
    "①^(" + "7" * 5000 + ")",
    "3 + " + "7" * 5000 + "①",
    "7" * 700,
    "7" * 700 + "/" + "3" * 700,
]

_PIECES = ["1", "2", "7", "12", "305", "999999999999", "0", "0.5", "2.25", "3/4", "-", "+",
           "−", "*", "^", "(", ")", "/", ".", "①", "G1", "G", " ", "  ", "\t"]


def _number(rng: Random) -> str:
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 14)))
    if rng.random() < 0.15:
        digits += "." + "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 4)))
    elif rng.random() < 0.25:
        digits += "/" + str(rng.randint(0, 999))
    return digits


def _exponent(rng: Random) -> str:
    roll = rng.random()
    if roll < 0.3:
        return ""
    sign = rng.choice(["", "", "-", "−", "+"])
    body = rng.choice([str(rng.randint(0, 5)), f"{rng.randint(1, 5)}/{rng.randint(1, 4)}"])
    if roll < 0.55 and "/" not in body:
        return "^" + sign + body
    space = rng.choice(["", "", " "])
    return f"^({space}{sign}{space}{body}{space})"


def _term(rng: Random) -> str:
    unit = rng.choice(["①", "G1"])
    roll = rng.random()
    if roll < 0.3:
        return _number(rng)
    if roll < 0.5:
        return unit + _exponent(rng)
    return _number(rng) + rng.choice(["", "*", " * ", " "]) + unit + _exponent(rng)


def well_formed(rng: Random) -> str:
    """A numeral in the grammar, mostly valid: terms, signs and spacing drawn at random."""
    text = rng.choice(["", "", "-", "−", "+", "- "]) + _term(rng)
    for _ in range(rng.randint(0, 5)):
        text += rng.choice([" + ", " - ", "+", "-", " − "]) + _term(rng)
    return text


def mutated(rng: Random, text: str) -> str:
    """``text`` with one to three pieces inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 0.4 or not chars:
            chars.insert(at, rng.choice(_PIECES))
        elif roll < 0.7:
            del chars[min(at, len(chars) - 1)]
        else:
            chars[min(at, len(chars) - 1)] = rng.choice(_PIECES)
    return "".join(chars)


def noise(rng: Random) -> str:
    """A short run of grammar pieces with no structure."""
    return "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 8)))


def texts() -> list[tuple[str, int]]:
    """Every (text, prefix start) of the corpus, in a fixed order."""
    rng = Random(SEED)
    out = [(t, 0) for t in EDGES]
    for i in range(2000):
        roll = i % 4
        if roll < 2:
            text = well_formed(rng)
        elif roll == 2:
            text = mutated(rng, well_formed(rng))
        else:
            text = noise(rng)
        start = 0
        if rng.random() < 0.1:
            # A prefix parse from inside a larger text: positions count from its start.
            lead = rng.choice(["[", "x = ", "[1.."])
            text, start = lead + text, len(lead)
        out.append((text, start))
    return out


def _result(parse, *args) -> dict:
    try:
        got = parse(*args)
    except ParseError as exc:
        return {"error": exc.args[0], "position": exc.position}
    if isinstance(got, tuple):
        value, end = got
        return {"terms": repr(value.terms), "end": end}
    return {"terms": repr(got.terms)}


def entry(text: str, start: int) -> dict:
    return {
        "text": text,
        "start": start,
        "full": _result(parse_numeral, text),
        "prefix": _result(parse_numeral_prefix, text, start),
    }


def main() -> None:
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    corpus = [entry(text, start) for text, start in texts()]
    lines = ",\n".join(json.dumps(e, ensure_ascii=False) for e in corpus)
    OUT.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    valid = sum("terms" in e["full"] for e in corpus)
    print(f"{len(corpus)} texts, {valid} valid, written to {OUT.name}")


if __name__ == "__main__":
    main()
