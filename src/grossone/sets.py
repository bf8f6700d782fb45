"""Finite unions of integer intervals with gross-number endpoints.

An :class:`IntervalSet` describes a set of gross-integers as a canonical
union of closed intervals ``[lo..hi]``: parts are sorted, pairwise
disjoint, and never adjacent (``[1..3] | [4..6]`` collapses to ``[1..6]``).
Canonical form makes structural equality coincide with set equality and
gives every set a well defined element count, even when the endpoints are
infinite like ``[1..①]``.

The sweeps of ``make_set``, ``union``, ``intersect``, ``difference``,
``is_subset`` and ``contains`` and the count of ``cardinality`` work on the
order keys of the endpoints (``gnum._key``), not through GrossNumber
operators.  Each set holds the keys of its endpoints: the sweeps hand them
on to the sets they build, and the checking constructor computes them as
it checks the parts.  A gap end, an endpoint moved by 1, is read back from
its moved key by ``gnum._from_key``.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import (
    EmptyIntervalRejected,
    EmptySet,
    InvalidArgument,
    NonIntegerEndpoint,
    NonIntegerOffset,
    NotSubsetOfRange,
    _shown,
)
from .gnum import GROSSONE, GrossNumber, _Scanner, _gross_integer, _is_gross_integer, _text_arg, finite
from .gnum import _Value, _exact, _from_int, _from_key, _key, _key_terms, _summed

__all__ = [
    "GrossInterval",
    "IntervalSet",
    "EMPTY",
    "interval",
    "make_set",
    "union",
    "intersect",
    "difference",
    "cardinality",
    "extrema",
    "contains",
    "is_subset",
    "is_initial_segment",
    "is_final_segment",
    "convex_hull",
    "map_affine",
    "union_initial_segments",
    "parse_set_expression",
]


class GrossInterval(_Value):
    """Closed integer interval ``[lo..hi]`` with ``lo <= hi``.

    Endpoints are read through ``finite`` and must be gross-integers.
    Two ints with ``lo <= hi`` are taken as they are, since every int is a
    gross-integer; anything else is checked.
    Empty intervals are rejected rather than normalized away, because an
    explicit empty part never has a canonical place in an interval union.
    ``GrossInterval(...)``, ``interval``, ``map_affine``, ``convex_hull``,
    ``union_initial_segments`` and the parser check their endpoints; the
    parts that ``union``, ``intersect``, ``difference`` and ``make_set``
    compute from parts already in hand are built by ``_span`` unchecked.
    """

    lo: GrossNumber
    hi: GrossNumber

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is int and type(hi) is int and lo <= hi:
            object.__setattr__(self, "lo", _from_int(lo))
            object.__setattr__(self, "hi", _from_int(hi))
            return
        lo, hi = finite(lo), finite(hi)
        object.__setattr__(self, "lo", _gross_integer(lo, "lower endpoint", NonIntegerEndpoint))
        object.__setattr__(self, "hi", _gross_integer(hi, "upper endpoint", NonIntegerEndpoint))
        if lo > hi:
            raise EmptyIntervalRejected(f"[{_shown(lo)}..{_shown(hi)}] has no elements")

    def count(self) -> GrossNumber:
        return self.hi - self.lo + 1

    def __str__(self) -> str:
        return f"[{self.lo}..{self.hi}]"


def interval(lo, hi) -> GrossInterval:
    """Interval from plain ints, Fractions or gross-numbers."""
    return GrossInterval(lo, hi)


class IntervalSet(_Value):
    """Canonical finite union of disjoint, non-adjacent intervals.

    ``IntervalSet(...)`` checks that its parts are intervals, sorted,
    disjoint and non-adjacent, and so do the sets of ``map_affine``,
    ``convex_hull`` and ``union_initial_segments``.  ``union``,
    ``intersect``, ``difference`` and ``make_set`` build sets that their
    sweeps make canonical, through ``_canonical``, and do not check them
    again; they first refuse an operand that is not an IntervalSet (for
    ``make_set``, an item that is not a GrossInterval).  The measurement
    readers build their targets through ``make_set``'s own sweep,
    ``_coalesce``, from the parts and keys they read.

    The private slot ``_keys`` holds ``(lower keys, upper keys)``, the order
    keys of the parts' endpoints (see ``gnum._key``).  Keys order as
    the numbers do only for gross-integers, where no term follows the finite
    part, and every endpoint is one.  The constructor checks the parts on
    their keys and holds them; ``_canonical`` holds the keys its sweep
    computed.  The slot is no field, so equality, hashing, ``repr`` and
    pickling ignore it.

    The set operations rely on that check, so a subclass whose own or
    inherited ``__post_init__`` is not IntervalSet's is refused as it is
    created, by the value metaclass (see ``gnum._ValueType``), whatever a
    mixin's ``__init_subclass__`` does.  A constructor runs the check its
    class was created with, so binding or deleting ``__post_init__`` later
    changes none.
    """

    __slots__ = ("_keys",)

    parts: tuple[GrossInterval, ...] = ()

    def __post_init__(self):
        los, his = [], []
        prev = None
        for part in self.parts:
            _part_arg(part)
            lo = _key(part.lo)
            if prev is not None and _reaches(lo, his[-1]):
                raise InvalidArgument(
                    f"parts {_shown(prev)} and {_shown(part)} are unsorted, overlapping or adjacent"
                )
            los.append(lo)
            his.append(_key(part.hi))
            prev = part
        _hold_keys(self, (tuple(los), tuple(his)))

    # Against the check IntervalSet was created with, not the attribute bound later.
    _sealed_check = (__post_init__, "the set operations rely on the base's canonical check and order keys")

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __contains__(self, value) -> bool:
        return contains(self, value)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return union(self, other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return intersect(self, other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return difference(self, other)

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return "|".join(str(part) for part in self.parts)

    def __repr__(self) -> str:
        return f"IntervalSet({self})"


_hold_keys = IntervalSet._keys.__set__
EMPTY = IntervalSet()


def _part_arg(part) -> None:
    if not isinstance(part, GrossInterval):
        raise TypeError(f"parts must be GrossInterval, got {_shown(part, repr)}")


def _set_arg(s) -> IntervalSet:
    """``s``, refused unless it is an IntervalSet, whose parts the sweeps trust to be canonical."""
    if not isinstance(s, IntervalSet):
        raise TypeError(f"expected an IntervalSet, got {type(s).__name__}")
    return s


def _span(lo: GrossNumber, hi: GrossNumber) -> GrossInterval:
    """``[lo..hi]``, not re-checked: the caller tested ``lo <= hi``.

    Both ends are endpoints of parts in hand, or such endpoints moved by 1,
    so they are gross-integer GrossNumbers already.
    """
    return GrossInterval._trusted(lo, hi)


def _canonical(parts: list, los: list, his: list) -> IntervalSet:
    """The set of ``parts``, holding their lower and upper keys; not re-checked.

    The sweep that yields them emits them canonical: overlaps and gaps of
    canonical sets, walked in order, come out sorted, disjoint and
    non-adjacent, and so does a merge of sorted parts that joins every part
    touching the one before it.
    """
    s = IntervalSet._trusted(tuple(parts))
    _hold_keys(s, (tuple(los), tuple(his)))
    return s


def _reaches(lo: tuple, top: tuple) -> bool:
    """Whether the key ``lo`` is at most the key ``top`` plus 1.

    Past ``top`` it is ``top + 1`` only when it is ``top``'s key with the last
    entry one larger, so the last entries are compared before the rest and
    no ``top + 1`` key is built.
    """
    return lo <= top or lo[-1] == top[-1] + 1 and lo[:-1] == top[:-1]


def make_set(intervals) -> IntervalSet:
    """Canonical set from any iterable of intervals (overlap allowed)."""
    parts, los, his = [], [], []
    for part in intervals:
        _part_arg(part)
        parts.append(part)
        los.append(_key(part.lo))
        his.append(_key(part.hi))
    return _coalesce(parts, los, his)


def _coalesce(parts, los, his) -> IntervalSet:
    """Canonical set from parts in any order, with their lower and upper keys.

    The parts are read in order of lower key, a stable sort of their
    indices.  Each part that starts at most one past the last merged part
    joins it, so the merged parts stay sorted and are neither overlapping
    nor adjacent.
    """
    merged, merged_los, merged_his = [], [], []
    top = None  # the upper key of merged[-1]
    for i in sorted(range(len(parts)), key=los.__getitem__):
        lo, hi = los[i], his[i]
        # _reaches(lo, top), written out in this loop over every part.
        if merged and (lo <= top or lo[-1] == top[-1] + 1 and lo[:-1] == top[:-1]):
            if hi > top:
                merged[-1] = _span(merged[-1].lo, parts[i].hi)
                merged_his[-1] = top = hi
        else:
            merged.append(parts[i])
            merged_los.append(lo)
            merged_his.append(hi)
            top = hi
    return _canonical(merged, merged_los, merged_his)


# ------------------------------------------------------------------ set algebra


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    # Two sorted runs: the sort in _coalesce finds and merges them in one pass.
    a, b = _set_arg(a), _set_arg(b)
    (alo, ahi), (blo, bhi) = a._keys, b._keys
    return _coalesce(a.parts + b.parts, alo + blo, ahi + bhi)


def _cut(lo: GrossNumber, part: GrossInterval) -> GrossInterval:
    """``[lo..part.hi]`` for ``lo <= part.hi``, reusing ``part`` when ``lo`` is its own lower endpoint."""
    return part if lo is part.lo else _span(lo, part.hi)


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    # Two-pointer sweep: each step retires the part that ends first, so
    # every overlapping pair is met once.  Overlaps of canonical sets come
    # out sorted, disjoint and non-adjacent, hence already canonical.
    out, out_los, out_his = [], [], []
    ap, bp = _set_arg(a).parts, _set_arg(b).parts
    (alo, ahi), (blo, bhi) = a._keys, b._keys
    i = j = 0
    na, nb = len(ap), len(bp)
    while i < na and j < nb:
        lo, klo = (ap[i].lo, alo[i]) if alo[i] >= blo[j] else (bp[j].lo, blo[j])
        if ahi[i] <= bhi[j]:
            first, khi = ap[i], ahi[i]
            i += 1
        else:
            first, khi = bp[j], bhi[j]
            j += 1
        if klo <= khi:
            out.append(_cut(lo, first))
            out_los.append(klo)
            out_his.append(khi)
    return _canonical(out, out_los, out_his)


def _moved(key: tuple, step: int) -> tuple:
    """The key of ``y + step`` for the key of a gross-integer ``y``."""
    return (*key[:-1], key[-1] + step)


def _uncovered(a: IntervalSet, b: IntervalSet):
    """The parts of ``a - b`` with their lower and upper keys, in order; the gaps of b inside the parts of a."""
    # Sweep over b alongside a: parts of b that end below the current part
    # of a can never meet a later one, and the part of b that reaches past
    # it is kept for the next part of a.  A gap's ends are the ends of b's
    # parts moved by 1, read back from their moved keys.
    (alo, ahi), (blo, bhi) = a._keys, b._keys
    j, nb = 0, len(blo)
    for p, plo, phi in zip(a.parts, alo, ahi):
        while j < nb and bhi[j] < plo:
            j += 1
        lo, klo = p.lo, plo
        while j < nb and blo[j] <= phi:
            if blo[j] > klo:
                khi = _moved(blo[j], -1)
                yield _span(lo, _from_key(khi)), klo, khi
            if bhi[j] >= phi:
                break  # b's j-th part covers the rest of p
            klo = _moved(bhi[j], 1)
            lo = _from_key(klo)
            j += 1
        else:
            yield _cut(lo, p), klo, phi


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    parts, los, his = [], [], []
    for part, lo, hi in _uncovered(_set_arg(a), _set_arg(b)):
        parts.append(part)
        los.append(lo)
        his.append(hi)
    return _canonical(parts, los, his)


def cardinality(s: IntervalSet) -> GrossNumber:
    """Exact element count; ``[1..①]`` has ① elements, not a limit symbol.

    The sum of ``hi - lo + 1`` over the parts, read from their keys: the
    finite parts of the keys add up to one int, and only keys with terms of
    positive exponent add their terms, merged once into the result.
    """
    los, his = _set_arg(s)._keys
    count = 0
    gross = []
    for lo, hi in zip(los, his):
        count += hi[-1] - lo[-1] + 1
        if len(hi) > 2:
            gross += _key_terms(hi)
        if len(lo) > 2:
            gross += _key_terms(lo, -1)
    return _summed([*gross, (0, count)]) if gross else _from_int(count)


def extrema(s: IntervalSet) -> tuple[GrossNumber, GrossNumber]:
    """(minimum, maximum) of a nonempty set."""
    if not _set_arg(s).parts:
        raise EmptySet("empty set has no extrema")
    return s.parts[0].lo, s.parts[-1].hi


def contains(s: IntervalSet, value) -> bool:
    _set_arg(s)
    x = finite(value)
    if not _is_gross_integer(x):
        return False
    los, his = s._keys
    key = _key(x)
    k = bisect_right(los, key) - 1
    return k >= 0 and key <= his[k]


def is_subset(a: IntervalSet, b: IntervalSet) -> bool:
    """Whether b covers a; the sweep of ``difference`` stops at the first uncovered part."""
    return next(_uncovered(_set_arg(a), _set_arg(b)), None) is None


def convex_hull(s: IntervalSet) -> IntervalSet:
    """Smallest single interval containing the set."""
    if not _set_arg(s).parts:
        raise EmptySet("empty set has no hull")
    lo, hi = extrema(s)
    return IntervalSet((GrossInterval(lo, hi),))


def map_affine(s: IntervalSet, sign: int, offset) -> IntervalSet:
    """Image of the set under ``x -> sign*x + offset`` with sign in {+1, -1}.

    Such maps are exactly the order-preserving or order-reversing rigid
    motions of the integers, so images of intervals stay intervals, and the
    image of a canonical set keeps its gaps: it is canonical once the parts
    are put back in order, reversed when sign is -1.
    """
    _set_arg(s)
    # Read as finite reads a number: a float is a TypeError, True and Fraction(1) are 1.
    if _exact(sign) not in (1, -1):
        raise InvalidArgument("sign must be +1 or -1")
    shift = _gross_integer(offset, "offset", NonIntegerOffset)
    if sign == 1:
        return IntervalSet(tuple(GrossInterval(p.lo + shift, p.hi + shift) for p in s.parts))
    return IntervalSet(tuple(GrossInterval(shift - p.hi, shift - p.lo) for p in reversed(s.parts)))


def _only_part_in_range(s: IntervalSet, bound, error: type[Exception]) -> GrossInterval | None:
    """The only part of s, or None; s must lie inside [1..bound], and ``error`` names a bad bound."""
    whole = IntervalSet((GrossInterval(1, _gross_integer(bound, "bound", error)),))
    if not is_subset(s, whole):
        raise NotSubsetOfRange(f"{_shown(s)} is not a subset of {_shown(whole)}")
    return s.parts[0] if len(s.parts) == 1 else None


def is_initial_segment(s: IntervalSet, bound: GrossNumber | int = GROSSONE) -> GrossNumber | None:
    """The n with s == [1..n], or None; s must live inside [1..bound].

    This is the shape a set must have to be measured by the identity map.
    """
    part = _only_part_in_range(s, bound, NonIntegerEndpoint)
    return part.hi if part is not None and part.lo == 1 else None


def is_final_segment(s: IntervalSet, bound: GrossNumber | int = GROSSONE) -> GrossNumber | None:
    """The n with s == [n..bound], or None; s must live inside [1..bound]."""
    part = _only_part_in_range(s, bound, NonIntegerOffset)
    return part.lo if part is not None and part.hi == bound else None


def union_initial_segments(bound: GrossNumber | int = GROSSONE) -> IntervalSet:
    """Union of [1..n] over all n strictly below ``bound``.

    For bound ① this is [1..①-1]: every proper initial segment stops short
    of the last natural number, so their union still misses ①.
    """
    top = _gross_integer(bound, "bound", NonIntegerEndpoint) - 1
    if finite(1) > top:
        return EMPTY
    return IntervalSet((GrossInterval(1, top),))


# ------------------------------------------------------------------ expressions


# Each nesting level costs three parser frames; this keeps the deepest
# expression well inside the interpreter's default recursion limit.
_MAX_NESTING = 100


# name -> (whether a numeral follows the set argument, the function)
_FUNCTIONS = {
    "iota": (True, lambda s, kappa: map_affine(s, -1, kappa + 1)),
    "reflect": (True, lambda s, center: map_affine(s, -1, center * 2)),
    "hull": (False, convex_hull),
}


class _SetScanner(_Scanner):
    """Recursive-descent parser for set expressions.

    Grammar (whitespace allowed between tokens; '|' and '\\' bind equally
    and associate left, '&' binds tighter):

        expr    := meet (('|' | '\\') meet)*
        meet    := factor ('&' factor)*
        factor  := '[' numeral '..' numeral ']'
                 | '{' numeral (',' numeral)* '}'
                 | '(' expr ')'
                 | 'iota' '(' expr ',' numeral ')'
                 | 'reflect' '(' expr ',' numeral ')'
                 | 'hull' '(' expr ')'

    ``iota(S, k)`` maps x to k+1-x (the reversal of [1..k]); ``reflect(S, a)``
    mirrors through the point a; ``hull(S)`` is the convex hull.  Bracketed
    and function arguments nest at most ``_MAX_NESTING`` deep.  Numerals are
    read by the numeral scanner this class extends, on the same text.
    """

    depth = 0

    def parse_nested(self) -> IntervalSet:
        """An ``expr`` one nesting level down; ParseError past the depth cap."""
        if self.depth >= _MAX_NESTING:
            self.fail(f"set expression nested more than {_MAX_NESTING} deep")
        self.depth += 1
        inner = self.parse_expr()
        self.depth -= 1
        return inner

    def parse_factor(self) -> IntervalSet:
        self.skip_ws()
        ch = self.peek()
        if ch == "[":
            return IntervalSet((GrossInterval(*self.parse_interval()),))
        if ch == "{":
            self.pos += 1
            self.skip_ws()
            if self.peek() == "}":
                self.pos += 1
                return EMPTY
            elements = [self.parse_sum()]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                elements.append(self.parse_sum())
                self.skip_ws()
            self.expect("}")
            return make_set(GrossInterval(e, e) for e in elements)
        if ch == "(":
            self.pos += 1
            inner = self.parse_nested()
            self.expect(")")
            return inner
        name = self.read_name()
        if name not in _FUNCTIONS:
            self.pos -= len(name)
            self.fail("expected an interval, enumeration, '(' or a function name")
        takes_numeral, apply = _FUNCTIONS[name]
        self.expect("(")
        args = [self.parse_nested()]
        if takes_numeral:
            self.expect(",")
            args.append(self.parse_sum())
        self.expect(")")
        return apply(*args)

    def parse_meet(self) -> IntervalSet:
        result = self.parse_factor()
        while True:
            self.skip_ws()
            if self.peek() == "&":
                self.pos += 1
                result = intersect(result, self.parse_factor())
            else:
                return result

    def parse_expr(self) -> IntervalSet:
        operands = [(True, self.parse_meet())]
        while True:
            self.skip_ws()
            op = self.peek()
            if op == "|" or op == "\\":
                self.pos += 1
                operands.append((op == "|", self.parse_meet()))
            else:
                return _chain(operands)[0]


def _chain(operands: list[tuple[bool, IntervalSet]]) -> tuple[IntervalSet, IntervalSet]:
    """(value, cover) of a chain of ``(kept, set)`` operands, the cover being their union.

    '|' and '\\' bind equally and associate left, so x is in the value exactly
    when the last operand that holds x is kept: x in the right half's cover
    takes its answer from the right half.  Each halving sweeps every part
    once, so n operands with N parts in all cost O(N log n).
    """
    if len(operands) == 1:
        kept, s = operands[0]
        return (s if kept else EMPTY), s
    mid = len(operands) // 2
    left, left_cover = _chain(operands[:mid])
    right, right_cover = _chain(operands[mid:])
    cover = union(left_cover, right_cover)
    if left is left_cover and right is right_cover:
        return cover, cover
    return union(difference(left, right_cover), right), cover


def parse_set_expression(text: str) -> IntervalSet:
    """Evaluate a set expression; see :class:`_SetScanner` for the grammar."""
    _text_arg(text)
    scanner = _SetScanner(text)
    result = scanner.parse_expr()
    scanner.finish()
    return result
