"""Naive reference answers that share no code with the library.

Numerals are dicts ``{exponent: coefficient}`` of Fractions; sets are
Python ``set[int]`` models, or, for sets with a tail climbing to ①, a
finite part plus the known tail bounds.  Everything here is deliberately
simple: it decides whether a library result is right, it is never timed.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def poly_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def poly_sign(a: dict) -> int:
    """Sign of the value: the coefficient of the highest exponent decides."""
    if not a:
        return 0
    return 1 if a[max(a)] > 0 else -1


def poly_of(x) -> dict:
    """The dict form of a library GrossNumber (reads only its public terms)."""
    return {e: c for e, c in x.terms}


def const(n) -> dict:
    return {Fraction(0): Fraction(n)} if n else {}


def gross_minus(k: int) -> dict:
    """The numeral ① - k."""
    return poly_add({Fraction(1): Fraction(1)}, const(-k))


def iroot(n: int, k: int) -> int:
    """Largest r >= 1 with r**k <= n, for n >= 1."""
    if k == 2:
        return isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


# ------------------------------------------------------------------ sets


def finite_model(pairs) -> set[int]:
    out: set[int] = set()
    for lo, hi in pairs:
        out.update(range(lo, hi + 1))
    return out


def model_of(s) -> set[int]:
    """Model of a library IntervalSet whose endpoints are all finite."""
    return finite_model((p.lo.as_int(), p.hi.as_int()) for p in s.parts)


class TailSet:
    """A generated set ``F | [tail_lo..① - tail_gap]`` with F finite, F < tail_lo."""

    def __init__(self, pairs, tail_lo: int, tail_gap: int):
        self.pairs = list(pairs)
        self.tail_lo = tail_lo
        self.tail_gap = tail_gap

    def card(self) -> dict:
        lead = sum(hi - lo + 1 for lo, hi in self.pairs)
        return poly_add(gross_minus(self.tail_gap), const(lead - self.tail_lo + 1))

    def contains_finite(self, x: int) -> bool:
        return x >= self.tail_lo or any(lo <= x <= hi for lo, hi in self.pairs)

    def contains_near_gross(self, k: int) -> bool:
        """Whether ① - k is an element (every finite bound lies below it)."""
        return k >= self.tail_gap
