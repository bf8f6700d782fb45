"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately naive: dict-of-exponents polynomial
arithmetic and term merging, Python sets of ints as the set model, linear
scans for inverse functions.  sympy's polynomials give a second,
independent check of products and exact quotients.  The point is that none of it shares
code with the library under test.
"""

import re
from fractions import Fraction
from random import Random

import sympy

from grossone.errors import (
    EmptyIntervalRejected,
    EmptySet,
    InvalidArgument,
    InvalidMeasurement,
    NonIntegerEndpoint,
    NotExpressible,
    ParseError,
    _shown,
)
from grossone.gnum import (
    GROSS_ASCII,
    GROSS_SYMBOL,
    GROSSONE,
    ZERO,
    GrossNumber,
    _gross_integer,
    _Scanner,
    finite,
    parse_numeral,
)
from grossone.measure import AffinePiece, Measurement
from grossone.sets import GrossInterval, IntervalSet, interval, make_set


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


def reference_long_division(p: dict, q: dict) -> dict | None:
    """The quotient p/q by dict-polynomial long division, or None when it has no finite form.

    Each step clears the highest term of the remainder, and subtracts the
    whole product of that quotient term and q from the whole remainder.  A
    quotient exponent below p's lowest less q's lowest could never clear
    the remainder's lowest term, so the division fails there.
    """
    top, lowest = max(q), min(p) - min(q) if p else 0
    quotient: dict[Fraction, Fraction] = {}
    remainder = dict(p)
    while remainder:
        e = max(remainder)
        if e - top < lowest:
            return None
        quotient[e - top] = Fraction(remainder[e]) / q[top]
        remainder = poly_add(remainder, poly_mul({e - top: -quotient[e - top]}, q))
    return quotient


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


# A measurement reader that reads every numeral with the scanner into a
# GrossNumber, builds a validated GrossInterval and AffinePiece per row and
# leaves the whole invariant to Measurement's validator: the library's
# reader before it read plain integers as ints and checked the runs once.

_FIELD = re.compile(r"\S+")
_TEXT_ARITY = {"mu": (1,), "piece": (2, 3), "target": (1,)}
_JSON_SLOTS = ("lo", "hi", "offset")
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _reference_text_rows(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = list(_FIELD.finditer(line))
        if not fields:
            continue
        kind, args = fields[0].group(), fields[1:]
        try:
            if len(args) not in _TEXT_ARITY.get(kind, ()):
                raise ParseError(f"unrecognized line {line.strip()!r}", line, fields[0].start())
            values = []
            for field in args:
                scanner = _Scanner(line[: field.end()], field.start())
                values += scanner.parse_interval() if kind == "target" else [scanner.parse_sum()]
                scanner.finish()
            yield kind, tuple(values)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.args[0]}", line, exc.position) from None


def _reference_json_member(container: dict, key: str, kind: type, where: str):
    value = container.get(key)
    if not isinstance(value, kind):
        raise ParseError(f"expected {_JSON_KINDS[kind]}", f"{where}.{key}", 0)
    return value


def _reference_json_numeral(container: dict, key: str, where: str) -> GrossNumber:
    text = _reference_json_member(container, key, str, where)
    try:
        return parse_numeral(text)
    except ParseError as exc:
        raise ParseError(f"{where}.{key}: {exc.args[0]}", text, exc.position) from None


def _reference_json_rows(data):
    if not isinstance(data, dict):
        raise ParseError("expected an object", "$", 0)
    yield "mu", (_reference_json_numeral(data, "mu", "$"),)
    for kind, key in (("piece", "pieces"), ("target", "target")):
        for i, entry in enumerate(_reference_json_member(data, key, list, "$")):
            where = f"$.{key}[{i}]"
            if not isinstance(entry, dict):
                raise ParseError("expected an object", where, 0)
            count = 3 if kind == "piece" and "offset" in entry else 2
            yield kind, tuple([_reference_json_numeral(entry, slot, where) for slot in _JSON_SLOTS[:count]])


def _reference_from_rows(rows) -> Measurement:
    mu, pieces, targets = None, [], []
    for kind, values in rows:
        if kind == "mu":
            (mu,) = values
        elif kind == "piece":
            offset = values[2] if len(values) == 3 else 0
            pieces.append(AffinePiece(GrossInterval(values[0], values[1]), offset))
        else:
            targets.append(GrossInterval(*values))
    if mu is None:
        raise InvalidMeasurement("missing mu line")
    return Measurement(mu=mu, pieces=tuple(pieces), target=make_set(targets))


def reference_from_text(text: str) -> Measurement:
    """The measurement of the line-based form, read field by field with the scanner."""
    return _reference_from_rows(_reference_text_rows(text))


def reference_from_jsonable(data) -> Measurement:
    """The measurement of a JSON-ready document, read numeral by numeral with ``parse_numeral``."""
    return _reference_from_rows(_reference_json_rows(data))


# The measurement writers as they were before they read a measurement's held
# runs: every numeral read from the pieces and the target's parts as a
# GrossNumber and written term by term.


def _reference_rows(m: Measurement):
    yield "mu", (m.mu,)
    for p in m.pieces:
        lo, hi = p.domain.lo, p.domain.hi
        yield "piece", (lo, hi) if p.offset.is_zero else (lo, hi, p.offset)
    for part in m.target.parts:
        yield "target", (part.lo, part.hi)


def reference_serialized_numerals(m: Measurement) -> list[GrossNumber]:
    """mu, each piece's domain ends and nonzero offset, then the target's ends, read from the pieces."""
    return [x for _, values in _reference_rows(m) for x in values]


def reference_to_text(m: Measurement, ascii_mode: bool = False) -> str:
    """The line-based form of ``m``, each numeral written by ``reference_format_numeral``."""
    lines = []
    for kind, values in _reference_rows(m):
        fields = [reference_format_numeral(x, ascii_mode=ascii_mode) for x in values]
        if kind == "target":
            fields = [f"[{fields[0]}..{fields[1]}]"]
        lines.append(" ".join([kind, *fields]))
    return "\n".join(lines) + "\n"


def reference_to_jsonable(m: Measurement, ascii_mode: bool = False) -> dict:
    """The JSON-ready dict of ``m``, each numeral written by ``reference_format_numeral``."""
    doc: dict = {"mu": None, "pieces": [], "target": []}
    for kind, values in _reference_rows(m):
        strings = [reference_format_numeral(x, ascii_mode=ascii_mode) for x in values]
        if kind == "mu":
            doc["mu"] = strings[0]
        else:
            doc["pieces" if kind == "piece" else kind].append(dict(zip(_JSON_SLOTS, strings)))
    return doc


# The measure layer's numerals as GrossNumbers throughout: the library's
# paths before it kept plain integers as ints.  Each returns plain data
# (GrossNumbers and tuples of them), so that no result passes through the
# constructors under test.


def reference_interval(lo, hi) -> tuple[GrossNumber, GrossNumber]:
    """The endpoints ``GrossInterval(lo, hi)`` stores, each read through ``finite`` and checked."""
    lo, hi = finite(lo), finite(hi)
    lo = _gross_integer(lo, "lower endpoint", NonIntegerEndpoint)
    hi = _gross_integer(hi, "upper endpoint", NonIntegerEndpoint)
    if lo > hi:
        raise EmptyIntervalRejected(f"[{_shown(lo)}..{_shown(hi)}] has no elements")
    return lo, hi


def reference_coalesce(parts) -> list[tuple[GrossNumber, GrossNumber]]:
    """The ``(lo, hi)`` parts of the canonical union of intervals, merged with ``hi + 1`` added as a GrossNumber."""
    merged: list[list[GrossNumber]] = []
    for part in sorted(parts, key=lambda p: p.lo):
        if merged and part.lo <= merged[-1][1] + 1:
            if part.hi > merged[-1][1]:
                merged[-1][1] = part.hi
        else:
            merged.append([part.lo, part.hi])
    return [tuple(ends) for ends in merged]


def reference_canonical_runs(s: IntervalSet) -> tuple[GrossNumber, list[tuple]]:
    """(mu, runs) of the order-preserving measurement, every run computed as GrossNumbers."""
    runs = []
    hi = ZERO
    for part in s.parts:
        lo = hi + 1
        offset = part.lo - lo
        hi = part.hi - offset
        runs.append((lo, hi, offset))
    return hi, runs


def reference_measure_in(system, s) -> tuple[GrossNumber, list[tuple]]:
    """(mu, runs) of the measurement ``measure_in`` admits, gated after the whole of it is built.

    The set is refused as ``canonical_measurement`` refuses it, then every
    numeral in the order of the text form (mu, each piece's domain ends and
    nonzero offset, the target's ends) is gated, and the first one the
    system cannot write raises NotExpressible.
    """
    if not isinstance(s, IntervalSet):
        raise TypeError(f"expected an IntervalSet, got {type(s).__name__}")
    if s.is_empty:
        raise EmptySet("the empty set has no measurement")
    mu, runs = reference_canonical_runs(s)
    numerals = [mu]
    for lo, hi, offset in runs:
        numerals += [lo, hi] if offset.is_zero else [lo, hi, offset]
    for part in s.parts:
        numerals += [part.lo, part.hi]
    for value in numerals:
        if not system.can_express(value):
            raise NotExpressible(value, system.describe())
    return mu, runs


def _reference_term_str(exponent, coefficient) -> str:
    """One term as ``gnum._term_str`` wrote it before it tested entry types first.

    Each entry is compared by value, so a Fraction entry pays ``Fraction.__eq__``.
    """
    if exponent == 0:
        return str(coefficient)
    if coefficient == 1:
        head = ""
    elif coefficient == -1:
        head = "-"
    else:
        head = str(coefficient)
    if exponent == 1:
        return head + GROSS_SYMBOL
    # Integer exponents print bare (sign included); fractional ones take
    # parentheses so the quotient cannot be misread as part of the sum.
    power = str(exponent) if exponent.denominator == 1 else f"({exponent})"
    return f"{head}{GROSS_SYMBOL}^{power}"


def reference_format_numeral(x, ascii_mode: bool = False) -> str:
    """The numeral of a value written term by term, plain integers included, by ``_reference_term_str``."""
    x = finite(x)
    if x.is_zero:
        return "0"
    chunks = []
    try:
        for exponent, coefficient in x.terms:
            piece = _reference_term_str(exponent, coefficient)
            if chunks and not piece.startswith("-"):
                chunks.append("+")
            chunks.append(piece)
    except ValueError:
        raise InvalidArgument("numeral has too many digits to write out") from None
    text = "".join(chunks)
    return text.replace(GROSS_SYMBOL, GROSS_ASCII) if ascii_mode else text


def reference_parse_sum(text: str, pos: int = 0) -> tuple[GrossNumber, int]:
    """The numeral read from ``pos`` and its end, as ``parse_numeral_prefix`` gives them.

    This is the scanner's sum loop as it was before it read the sign
    between two terms in one match: after each term it skips whitespace,
    takes a sign, or else steps back to the term's end, then skips
    whitespace again, and it multiplies each coefficient by the sign, +1 or
    -1.  A plain integer goes through the term loop too.
    """
    scanner = _Scanner(text, pos)
    scanner.skip_ws()
    terms = []
    sign = scanner.take_sign() or 1
    scanner.skip_ws()
    while True:
        exponent, coefficient = scanner.parse_term()
        terms.append((exponent, sign * coefficient))
        mark = scanner.pos
        scanner.skip_ws()
        nxt = scanner.take_sign()
        if nxt is None:
            scanner.pos = mark
            break
        sign = nxt
        scanner.skip_ws()
    return GrossNumber.from_terms(terms), scanner.pos
