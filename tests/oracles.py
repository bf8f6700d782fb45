"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately naive: dict-of-exponents polynomial
arithmetic and term merging, Python sets of ints as the set model, linear
scans for inverse functions.  sympy's polynomials give a second,
independent check of products and exact quotients.  The point is that none of it shares
code with the library under test.
"""

from fractions import Fraction
from random import Random

import sympy

from grossone.gnum import GROSSONE, GrossNumber, finite
from grossone.sets import IntervalSet, interval, make_set


def poly_from(x: GrossNumber) -> dict[Fraction, Fraction]:
    return {e: c for e, c in x.terms}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[Fraction, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def poly_equal(p: dict, x: GrossNumber) -> bool:
    return p == poly_from(x)


# A second arithmetic oracle: sympy's univariate polynomials over QQ, for
# dict polynomials with integer exponents.  A dict is shifted by its lowest
# exponent into an ordinary polynomial in G whose constant term is nonzero.

_G = sympy.Symbol("G")


def _to_sympy(p: dict) -> tuple[sympy.Poly, int]:
    low = int(min(p, default=0))
    expr = sympy.Integer(0)
    for e, c in p.items():
        if Fraction(e).denominator != 1:
            raise ValueError("the sympy oracle takes integer exponents only")
        expr += sympy.Rational(c.numerator, c.denominator) * _G ** (int(e) - low)
    return sympy.Poly(expr, _G, domain="QQ"), low


def _from_sympy(poly: sympy.Poly, low: int) -> dict:
    return {
        k + low: Fraction(int(c.p), int(c.q)) for (k,), c in poly.terms() if c != 0
    }


def sympy_mul(p: dict, q: dict) -> dict:
    a, la = _to_sympy(p)
    b, lb = _to_sympy(q)
    return _from_sympy(a * b, la + lb)


def sympy_div(p: dict, q: dict) -> dict | None:
    """The quotient p/q as a dict polynomial, or None when it has no finite form.

    The shifted divisor has a nonzero constant term, so it shares no factor
    with G, and p/q is a finite sum of integer powers of G exactly when the
    shifted divisor divides the shifted dividend.
    """
    a, la = _to_sympy(p)
    b, lb = _to_sympy(q)
    quotient, remainder = sympy.div(a, b)
    if not remainder.is_zero:
        return None
    return _from_sympy(quotient, la - lb)


def _exact(value):
    """An int or Fraction entry as an int when integral, else as a Fraction."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def reference_terms(pairs) -> tuple:
    """Canonical terms of exact (exponent, coefficient) pairs: merged in a dict on the exponents, then sorted."""
    merged: dict = {}
    for exponent, coefficient in pairs:
        e = _exact(exponent)
        c = _exact(coefficient)
        if e in merged:
            c = _exact(merged[e] + c)
        if c == 0:
            merged.pop(e, None)
        else:
            merged[e] = c
    return tuple(sorted(merged.items(), key=lambda t: t[0], reverse=True))


def reference_cardinality(s: IntervalSet) -> tuple:
    """The terms of the element count of s: hi - lo + 1 over the parts, as one flat term list."""
    terms = [(0, len(s.parts))]
    for part in s.parts:
        terms.extend(part.hi.terms)
        terms.extend((e, -c) for e, c in part.lo.terms)
    return reference_terms(terms)


def set_model(s: IntervalSet) -> set[int]:
    """The set as literal Python ints; only for small finite sets."""
    out: set[int] = set()
    for lo, hi in ((p.lo.as_int(), p.hi.as_int()) for p in s.parts):
        out.update(range(lo, hi + 1))
    return out


def set_from_model(values) -> IntervalSet:
    ordered = sorted(set(values))
    runs: list[tuple[int, int]] = []
    for v in ordered:
        if runs and v == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return make_set(interval(lo, hi) for lo, hi in runs)


def random_finite_set(rng: Random, lo: int = 1, hi: int = 1000, max_parts: int = 4) -> IntervalSet:
    """Nonempty union of up to max_parts random intervals inside [lo..hi]."""
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        a = rng.randint(lo, hi)
        b = min(hi, a + rng.randint(0, (hi - lo) // 4))
        parts.append(interval(a, b))
    return make_set(parts)


def random_proper_subset(rng: Random, whole: IntervalSet) -> IntervalSet | None:
    """A strictly smaller nonempty subset, or None if the set is a singleton."""
    elements = sorted(set_model(whole))
    if len(elements) < 2:
        return None
    keep = rng.sample(elements, rng.randint(1, len(elements) - 1))
    return set_from_model(keep)


def random_symbolic_set(rng: Random) -> IntervalSet:
    """A set whose last part climbs to a neighborhood of ①."""
    finite_lead = random_finite_set(rng, 1, 50, 2) if rng.random() < 0.6 else None
    tail_lo = rng.randint(60, 200)
    tail_hi = GROSSONE - rng.randint(0, 5) + (rng.randint(0, 3) if rng.random() < 0.3 else 0)
    tail = IntervalSet((interval(finite(tail_lo), tail_hi),))
    if finite_lead is None:
        return tail
    return make_set(finite_lead.parts + tail.parts)


def linear_scan_inverse(g, kappa: int) -> int:
    """Largest x >= 1 with g(x) <= kappa, found by walking upward."""
    x = 1
    while g(x + 1) <= kappa:
        x += 1
    return x
