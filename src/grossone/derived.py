"""Numbers defined by inverting a strictly increasing function.

For a strictly increasing g on positive integers and a positive integer
kappa with g(1) <= kappa, there is exactly one x with g(x) <= kappa <
g(x+1).  That x may have no closed form in gross-number arithmetic (the
integer square root of ① is the standard example), yet it is a perfectly
definite number: it can be compared against a probe y whenever g is
computable at the gross-integers next to y.  This module keeps such
numbers as symbolic tokens, resolves them outright when kappa is finite,
and offers the partial comparison, returning the Incomparable sentinel
instead of guessing when g cannot be evaluated there.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BelowRange, BoundExceeded, InvalidArgument, NotFinite, _shown
from .gnum import (
    GrossNumber,
    Sign,
    _INT_FIELD,
    _Scanner,
    _Value,
    _at_least,
    _compare_terms,
    _is_gross_integer,
    _plain_int,
    _power_order,
    _text_arg,
    classify,
    finite,
    format_numeral,
)

__all__ = [
    "MonotoneFn",
    "Pow",
    "ExpBase",
    "Affine",
    "DefinedNumeral",
    "INCOMPARABLE",
    "define_by_inverse",
    "resolve_finite",
    "cmp_defined",
    "DefinitionSession",
    "parse_defined",
    "format_defined",
]


class MonotoneFn:
    """A function strictly increasing on positive integers."""

    __slots__ = ()

    def evaluate(self, x: GrossNumber) -> GrossNumber | None:
        """g(x) as a gross-number, or None when no such value exists here."""
        raise NotImplementedError

    def at_most(self, x: GrossNumber, bound: GrossNumber) -> bool | None:
        """Whether g(x) <= bound, or None when g(x) has no value here."""
        value = self.evaluate(x)
        return None if value is None else value <= bound


def _placed_power(x: GrossNumber, k: int, bound: GrossNumber) -> bool | None:
    """Whether x**k <= bound for a nonzero x and k >= 1, without building x**k.

    None when that does not settle it.  x**k leads with c**k * ①**(k*e)
    for x's leading term c * ①**e.  The exponent and sign of that term
    place x**k against the bound's leading term unless both tie; then
    c**k is placed against the bound's leading coefficient by
    ``_power_order`` when bit lengths settle it.
    """
    exponent, c = x.terms[0]
    sign = -1 if c < 0 and k % 2 else 1
    head = ((bound.terms[0][0], 1 if bound.terms[0][1] > 0 else -1),) if bound.terms else ()
    order = _compare_terms(((exponent * k, sign),), head)
    if order:
        return order < 0
    order = _power_order(c, k, bound.terms[0][1], 1)
    return None if order is None else (order < 0) == (sign > 0)


#: Largest cost (see _power_cost) of a power that Pow.evaluate builds at a
#: probe that is not a plain integer; a costlier one is refused.  It is the
#: largest power of two for which every timed build within it took under
#: 1 s: over 21 probes of one to four terms with int and Fraction entries,
#: on one core of a Xeon container under CPython 3.11, the slowest took
#: 0.93 s, with a power loop that also squared once past the top bit.
#: (①+1)**744 and (3/2)**369727 still build.  With the present loop and
#: product merge (gnum._merged), on a 2-core container under CPython
#: 3.11.7, (①+1)**744 takes 0.09 s (0.14-0.21 s with a merge that read
#: every product pair through gnum._exact) and (3/2)**369727 0.33 s, so
#: the budget is conservative.
_POWER_BUDGET = 1 << 39


def _power_cost(x: GrossNumber, k: int) -> int:
    """A cost estimate of building x**k, x nonzero: (terms * (coefficient bits + overhead))**2.

    The exponents of x**k are sums of k exponents of x: at most
    C(k+t-1, t-1) of them for t terms, and all on a grid whose step is the
    gcd of x's exponent gaps and whose span is k times x's exponent span.  Each
    coefficient is at most (s*m)**k / m**k, with s the sum of |c| and m
    the lcm of the denominators.  Squaring multiplies every pair of terms,
    and each product costs about the square of its bits plus a fixed
    overhead, larger with Fraction entries.
    """
    top = x.terms[0][0]
    gaps = [Fraction(top - e) for e, _ in x.terms[1:]]
    terms = 1
    if gaps:
        step = gaps[0]
        for gap in gaps[1:]:
            step /= (gap / step).denominator  # the gcd of the gaps so far
        binomial = 1
        for i in range(1, len(x.terms)):
            binomial = binomial * (k + i) // i
        terms = min(k * int(gaps[-1] / step) + 1, binomial)
    scale = 1
    for _, c in x.terms:
        scale *= Fraction(scale, c.denominator).denominator  # the lcm of the denominators so far
    weight = int(sum(abs(c) for _, c in x.terms) * scale).bit_length() + scale.bit_length() - 2
    overhead = 250 if all(type(e) is int and type(c) is int for e, c in x.terms) else 2000
    return (terms * (k * weight + overhead)) ** 2


class Pow(MonotoneFn, _Value):
    """g(x) = x**k for a fixed integer k >= 2; evaluable everywhere."""

    k: int

    def __post_init__(self):
        _at_least(self.k, 2, "exponent")

    def evaluate(self, x: GrossNumber) -> GrossNumber:
        """x**k; refused with InvalidArgument past ``_POWER_BUDGET`` unless x is a plain integer."""
        k = self.k
        if _plain_int(x) is None and _power_cost(x, k) > _POWER_BUDGET:
            raise InvalidArgument(f"({_shown(x)})**{k} is too large to build for a comparison")
        return x**k

    def at_most(self, x: GrossNumber, bound: GrossNumber) -> bool:
        """Whether x**k <= bound, placed by ``_placed_power`` where that settles it.

        Otherwise x**k is built through ``evaluate``.  A plain integer left
        open then has at most about twice the bound's bits.
        """
        placed = _placed_power(x, self.k, bound) if x.terms else None
        return self.evaluate(x) <= bound if placed is None else placed


class ExpBase(MonotoneFn, _Value):
    """g(x) = b**x for a fixed integer b >= 2.

    Evaluable only at finite integers: b**① is not a finite sum of
    ①-powers, so probes at infinite points give None rather than a
    made-up value.
    """

    b: int

    def __post_init__(self):
        _at_least(self.b, 2, "base")

    def evaluate(self, x: GrossNumber) -> GrossNumber | None:
        n = _plain_int(x)
        if n is None or n < 0:
            return None
        return finite(self.b**n)

    def at_most(self, x: GrossNumber, bound: GrossNumber) -> bool | None:
        n = _plain_int(x)
        placed = _placed_power(finite(self.b), n, bound) if n is not None and n > 0 else None
        return super().at_most(x, bound) if placed is None else placed


class Affine(MonotoneFn, _Value):
    """g(x) = a*x + c with rational a > 0, read through ``finite``; evaluable everywhere."""

    a: Fraction
    c: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", finite(self.a).as_fraction())
        object.__setattr__(self, "c", finite(self.c).as_fraction())
        if self.a <= 0:
            raise InvalidArgument("slope must be positive")

    def evaluate(self, x: GrossNumber) -> GrossNumber:
        return x * self.a + self.c


class DefinedNumeral(_Value):
    """The unique x with g(x) <= kappa < g(x+1), held symbolically.

    ``kappa`` is read through ``finite`` and must be a gross-integer.
    """

    g: MonotoneFn
    kappa: GrossNumber

    def __post_init__(self):
        kappa = finite(self.kappa)
        object.__setattr__(self, "kappa", kappa)
        if not _is_gross_integer(kappa):
            raise InvalidArgument(f"kappa must be a gross-integer, got {_shown(kappa)}")

    def __str__(self) -> str:
        return format_defined(self)


class _Incomparable:
    """Sentinel for comparisons the catalog cannot decide."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Incomparable"


INCOMPARABLE = _Incomparable()


def define_by_inverse(g: MonotoneFn, kappa: GrossNumber | int) -> DefinedNumeral:
    """Name the x with g(x) <= kappa < g(x+1); no resolution is attempted."""
    d = DefinedNumeral(g=g, kappa=kappa)
    g1 = g.evaluate(finite(1))
    if g1 is None:
        raise InvalidArgument("g must be evaluable at 1")
    if d.kappa < g1:
        raise BelowRange(
            f"kappa {_shown(d.kappa)} is below g(1) = {_shown(g1)}; no positive x qualifies"
        )
    return d


def resolve_finite(d: DefinedNumeral) -> GrossNumber:
    """Concrete value of a defined numeral with finite kappa.

    Doubles an upper probe until g passes kappa, then bisects; exactness
    of the arithmetic makes the boundary test sharp.
    """
    if not classify(d.kappa).is_finite:
        raise NotFinite(f"kappa {_shown(d.kappa)} is not finite")
    hi = 1
    while d.g.at_most(finite(hi + 1), d.kappa):
        hi *= 2
    lo = 1
    # Invariant: g(lo) <= kappa < g(hi+1).
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if d.g.at_most(finite(mid), d.kappa):
            lo = mid
        else:
            hi = mid - 1
    return finite(lo)


def cmp_defined(d: DefinedNumeral, y: GrossNumber | int) -> Sign | _Incomparable:
    """Place a defined numeral relative to a probe y.

    d is a gross-integer and at least 1, since g(1) <= kappa, so d > y for
    any y < 1.  At a gross-integer y >= 1, d < y iff kappa < g(y), d > y
    iff g(y+1) <= kappa, and otherwise d = y.  At any other y, d > y iff
    g(n) <= kappa for the least gross-integer n above y, and else d < y.
    When g cannot be evaluated where asked the answer is the Incomparable
    sentinel, a value rather than an error.
    """
    y = finite(y)
    if y < 1:
        return Sign.POSITIVE
    if _is_gross_integer(y):
        at_y = d.g.at_most(y, d.kappa)
        if not at_y:
            return INCOMPARABLE if at_y is None else Sign.NEGATIVE
        n, below_n = y + 1, Sign.ZERO
    else:
        # The least gross-integer above y is whole + floor(rest) + 1, for
        # whole the terms of y with positive exponents and rest the others.
        rest = GrossNumber(tuple(t for t in y.terms if t[0] <= 0))
        floor = rest.coefficient(0) // 1
        n, below_n = y - rest + floor + (0 if rest < floor else 1), Sign.NEGATIVE
    at_n = d.g.at_most(n, d.kappa)
    if at_n is None:
        return INCOMPARABLE
    return Sign.POSITIVE if at_n else below_n


class DefinitionSession:
    """Bounded registry of defined numerals.

    Whatever is introduced must be introduced by finitely many operations;
    the session makes that bound explicit and refuses to run past it.
    """

    def __init__(self, max_definitions: int = 1000):
        _at_least(max_definitions, 1, "max_definitions")
        self.max_definitions = max_definitions
        self._defined: list[DefinedNumeral] = []

    def define(self, g: MonotoneFn, kappa: GrossNumber | int) -> DefinedNumeral:
        if len(self._defined) >= self.max_definitions:
            raise BoundExceeded(
                f"session already holds {self.max_definitions} definitions"
            )
        d = define_by_inverse(g, kappa)
        self._defined.append(d)
        return d

    @property
    def defined(self) -> tuple[DefinedNumeral, ...]:
        return tuple(self._defined)


# -------------------------------------------------------------------- CLI forms


def format_defined(d: DefinedNumeral, ascii_mode: bool = False) -> str:
    kappa = format_numeral(d.kappa, ascii_mode=ascii_mode)
    if isinstance(d.g, Pow) and d.g.k == 2:
        return f"sqrtfloor({kappa})"
    if isinstance(d.g, Pow):
        return f"invfloor(pow {d.g.k}, {kappa})"
    if isinstance(d.g, ExpBase):
        return f"logfloor({d.g.b}, {kappa})"
    if isinstance(d.g, Affine):
        return f"invfloor(affine {d.g.a} {d.g.c}, {kappa})"
    return f"invfloor(?, {kappa})"


def _read_int(scanner: _Scanner, message: str) -> int:
    scanner.skip_ws()
    found = _INT_FIELD.match(scanner.text, scanner.pos)
    if found is None:
        scanner.fail(message)
    try:
        value = int(found.group())
    except ValueError:
        # int() refuses the Unicode minus sign that _INT_FIELD reads, and a
        # field past the interpreter's int-to-string digit limit.
        scanner.fail(message)
    scanner.pos = found.end()
    return value


def parse_defined(text: str) -> DefinedNumeral:
    """Parse the CLI forms sqrtfloor(k), logfloor(b, k), invfloor(pow n, k).

    The whole form is read before g is built, and a ParseError's position
    counts from the start of ``text``.
    """
    _text_arg(text)
    scanner = _Scanner(text)
    head = scanner.read_name()
    if head not in ("sqrtfloor", "logfloor", "invfloor"):
        scanner.fail(f"unrecognized defined-numeral form {head!r}", scanner.pos - len(head))
    scanner.expect("(")
    if head == "sqrtfloor":
        make, param = Pow, 2
    elif head == "logfloor":
        make, param = ExpBase, _read_int(scanner, "logfloor base must be an integer")
        scanner.expect(",")
    else:
        name = scanner.read_name()
        if name != "pow":
            scanner.fail(f"unrecognized function {name!r}", scanner.pos - len(name))
        make, param = Pow, _read_int(scanner, "pow exponent must be an integer")
        scanner.expect(",")
    kappa = scanner.parse_sum()
    scanner.expect(")")
    scanner.finish()
    return define_by_inverse(make(param), kappa)
