"""Semi-infinite strips, reflections, and the containment question.

The worked example: take the strip A between the vertical lines x = -b
and x = a (with b an infinite gross-number), thicken it over a y-range I,
reflect it in the line x = a to get C, then reflect C in x = d to get B.
With exact infinite endpoints the answer is definite: B is not a subset
of A, and the part of B sticking out has length 2(a - d).  Under the
classical reading, where b and c are only "unbounded", the same two
reflections produce a strip indistinguishable from a subset of A; that
comparison lives in the classical_* names below and stays out of the
exact arithmetic path.

All computations act on x-coordinates; y-ranges are carried along
unchanged, exactly as the construction uses them.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import InvalidArgument, _shown
from .gnum import GROSSONE, GrossNumber, _Value, finite

__all__ = [
    "RealInterval",
    "Strip",
    "reflect_strip",
    "strip_subset",
    "uncovered_extent",
    "uncovered_parts",
    "Unbounded",
    "ClassicalInterval",
    "ClassicalStrip",
    "classical_reflect",
    "classical_subset",
    "HalfPlaneReport",
    "halfplane_demo",
]


class RealInterval(_Value):
    """Closed coordinate range [lo, hi]; endpoints need not be integers."""

    lo: GrossNumber
    hi: GrossNumber

    def __post_init__(self):
        object.__setattr__(self, "lo", finite(self.lo))
        object.__setattr__(self, "hi", finite(self.hi))
        if self.lo > self.hi:
            raise InvalidArgument(f"interval [{_shown(self.lo)}, {_shown(self.hi)}] is reversed")

    def length(self) -> GrossNumber:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{self.lo}..{self.hi}]"


class Strip(_Value):
    """An axis-aligned rectangle x-range times y-range; either may be infinite."""

    x: RealInterval
    y: RealInterval

    def __str__(self) -> str:
        return f"{self.x}x{self.y}"


def reflect_strip(s: Strip, axis_x) -> Strip:
    """Mirror image in the vertical line at ``axis_x``: x goes to -x + 2*axis_x."""
    return Strip(x=RealInterval(-s.x.hi + 2 * axis_x, -s.x.lo + 2 * axis_x), y=s.y)


def strip_subset(inner: Strip, outer: Strip) -> bool:
    """Exact nesting test on both coordinate ranges."""
    return (
        outer.x.lo <= inner.x.lo
        and inner.x.hi <= outer.x.hi
        and outer.y.lo <= inner.y.lo
        and inner.y.hi <= outer.y.hi
    )


def uncovered_parts(inner: Strip, outer: Strip) -> tuple[RealInterval | None, RealInterval | None]:
    """Where the overhang sits: (left of the outer strip, right of it).

    Each entry is the x-range of inner protruding on that side, or None
    when the side is covered.  The ranges are clipped to the inner strip,
    so a protrusion never reports coordinates the inner strip does not
    actually reach.
    """
    left = None
    if inner.x.lo < outer.x.lo:
        left = RealInterval(inner.x.lo, outer.x.lo if outer.x.lo <= inner.x.hi else inner.x.hi)
    right = None
    if inner.x.hi > outer.x.hi:
        right = RealInterval(outer.x.hi if outer.x.hi >= inner.x.lo else inner.x.lo, inner.x.hi)
    return left, right


def uncovered_extent(inner: Strip, outer: Strip) -> GrossNumber:
    """Total x-length of the inner strip lying outside the outer one."""
    total = finite(0)
    for part in uncovered_parts(inner, outer):
        if part is not None:
            total = total + part.length()
    return total


# ---------------------------------------------------------------- classical mode
#
# The contrast mode: endpoints may be the absorbing tokens below/above,
# which compare like -infinity/+infinity and are their own mirror images.
# Quarantined from the exact types on purpose; nothing here feeds back
# into gross-number arithmetic.


class Unbounded(enum.Enum):
    BELOW = "unbounded-below"
    ABOVE = "unbounded-above"

    def __str__(self) -> str:
        return self.value


ClassicalEnd = Fraction | Unbounded


def _classical_le(a: ClassicalEnd, b: ClassicalEnd) -> bool:
    if a is Unbounded.BELOW or b is Unbounded.ABOVE:
        return True
    if a is Unbounded.ABOVE:
        return b is Unbounded.ABOVE
    if b is Unbounded.BELOW:
        return a is Unbounded.BELOW
    return a <= b


def _classical_negate(a: ClassicalEnd) -> ClassicalEnd:
    if a is Unbounded.BELOW:
        return Unbounded.ABOVE
    if a is Unbounded.ABOVE:
        return Unbounded.BELOW
    return -a


class ClassicalInterval(_Value):
    lo: ClassicalEnd
    hi: ClassicalEnd

    def __post_init__(self):
        if not _classical_le(self.lo, self.hi):
            raise InvalidArgument(f"interval [{_shown(self.lo)}, {_shown(self.hi)}] is reversed")

    def __str__(self) -> str:
        return f"[{self.lo}..{self.hi}]"


class ClassicalStrip(_Value):
    x: ClassicalInterval
    y: ClassicalInterval

    def __str__(self) -> str:
        return f"{self.x}x{self.y}"


def classical_reflect(s: ClassicalStrip, axis_x: Fraction) -> ClassicalStrip:
    def move(a: ClassicalEnd) -> ClassicalEnd:
        flipped = _classical_negate(a)
        if isinstance(flipped, Unbounded):
            return flipped
        return flipped + 2 * axis_x

    return ClassicalStrip(x=ClassicalInterval(move(s.x.hi), move(s.x.lo)), y=s.y)


def classical_subset(inner: ClassicalStrip, outer: ClassicalStrip) -> bool:
    return (
        _classical_le(outer.x.lo, inner.x.lo)
        and _classical_le(inner.x.hi, outer.x.hi)
        and _classical_le(outer.y.lo, inner.y.lo)
        and _classical_le(inner.y.hi, outer.y.hi)
    )


# ------------------------------------------------------------------------- demo


class HalfPlaneReport(_Value):
    """Everything the two-reflection construction produces, exact and classical."""

    strip_a: Strip
    strip_c: Strip
    strip_b: Strip
    subset: bool
    uncovered: GrossNumber
    uncovered_left: RealInterval | None
    uncovered_right: RealInterval | None
    classical_subset: bool


def halfplane_demo(a, d, b: GrossNumber = GROSSONE, c: GrossNumber = GROSSONE) -> HalfPlaneReport:
    """Run the construction: A = [-b..a] x [-c..c], C = reflect(A, a), B = reflect(C, d).

    ``a`` and ``d`` are finite rationals; ``b`` and ``c`` default to ①.
    The classical comparison rereads b and c as unbounded tokens and
    repeats both reflections under absorbing arithmetic.
    """
    a = finite(a).as_fraction()
    d = finite(d).as_fraction()
    side = RealInterval(-c, c)
    strip_a = Strip(x=RealInterval(-b, a), y=side)
    strip_c = reflect_strip(strip_a, a)
    strip_b = reflect_strip(strip_c, d)
    left, right = uncovered_parts(strip_b, strip_a)

    tall = ClassicalInterval(Unbounded.BELOW, Unbounded.ABOVE)
    classical_a = ClassicalStrip(x=ClassicalInterval(Unbounded.BELOW, a), y=tall)
    classical_b = classical_reflect(classical_reflect(classical_a, a), d)

    return HalfPlaneReport(
        strip_a=strip_a,
        strip_c=strip_c,
        strip_b=strip_b,
        subset=strip_subset(strip_b, strip_a),
        uncovered=uncovered_extent(strip_b, strip_a),
        uncovered_left=left,
        uncovered_right=right,
        classical_subset=classical_subset(classical_b, classical_a),
    )
