"""Numeral systems as expressibility predicates.

Which numbers exist for you depends on which numerals you can write.  A
numeral system here is a concrete finite-description scheme with a
decidable "can this value be written down" test, a greatest expressible
finite positive integer, and (when the scheme reaches past the finite) a
least expressible infinite positive integer.  Measuring a set relative to
a system requires every numeral in the written-out measurement to be
expressible; the same set can be measurable in one system and not in
another.

Three kinds are provided:

* ``Piraha``: exactly the numerals 1 and 2.
* ``BoundedFinite(digits, base)``: machine-integer style; all integers n
  with |n| <= base**digits - 1, and 0.
* ``GrossBudget(max_terms, coeff_digits, exp_digits)``: gross-numbers
  with a bounded number of terms and base-10 digit budgets on coefficient
  numerator, coefficient denominator and (integer) exponent.

Every size test is one exact integer comparison of two powers
(``_exceeds``), settled from bit lengths by gnum's one two-power bracket
(``gnum._power_order``) before either power is built, so a huge
``digits`` answers at once and no floating point is used.
"""

from __future__ import annotations

from fractions import Fraction
from sys import get_int_max_str_digits, int_info

from .errors import (
    InvalidArgument,
    NoFiniteNumerals,
    NoInfiniteNumerals,
    NotExpressible,
    ParseError,
)
from .gnum import GrossNumber, Rational, _at_least, _plain_int, _power_order, _text_arg, finite, gross_term
from .gnum import _Value

__all__ = [
    "NumeralSystem",
    "Piraha",
    "BoundedFinite",
    "GrossBudget",
    "expressible",
    "max_finite",
    "min_infinite",
    "measure_in",
    "parse_system",
]


def _exceeds(base: int, exponent: int, other: int, other_exponent: int = 1) -> bool:
    """``base**exponent > other**other_exponent``; bases >= 0, exponents >= 1.

    Settled by ``gnum._power_order`` from bit lengths when they can settle
    it.  The powers are built only when they cannot, and then (for bases
    past 1) each has fewer than four times the other's bits, or twice when
    ``other_exponent`` is 1; so a huge exponent never has its power built.
    """
    if not (base and other):
        return base > other
    order = _power_order(base, exponent, other, other_exponent)
    if order is None:
        return base**exponent > other**other_exponent
    return order > 0


def _writable_digits() -> int:
    """Most decimal digits ``str`` writes for an int; the default if the limit is off.

    A numeral past it could not be printed, and building it can take far
    longer than any answer is worth.  The process-wide limit is only read.
    """
    return get_int_max_str_digits() or int_info.default_max_str_digits


def _writable_power(base: int, exponent: int) -> int:
    """``base**exponent``, refused before it is built if too long to write."""
    # base**exponent - 1 has more than d decimal digits when base**exponent > 10**d.
    if _exceeds(base, exponent, 10, _writable_digits()):
        raise InvalidArgument("numeral has too many digits to write out")
    return base**exponent


class NumeralSystem:
    """Marker base class; each kind implements the expressibility test."""

    __slots__ = ()

    def describe(self) -> str:
        raise NotImplementedError

    def can_express(self, x: GrossNumber) -> bool:
        raise NotImplementedError


class Piraha(NumeralSystem, _Value):
    """The two-numeral counting scheme: everything past 2 is just "many"."""

    def describe(self) -> str:
        return "piraha"

    def can_express(self, x: GrossNumber) -> bool:
        return x == 1 or x == 2


class BoundedFinite(NumeralSystem, _Value):
    """Fixed-width integers: 0 and every n with 1 <= |n| <= base**digits - 1."""

    digits: int
    base: int = 10

    def __post_init__(self):
        _at_least(self.digits, 1, "digits")
        _at_least(self.base, 2, "base")

    def describe(self) -> str:
        return f"finite:{self.digits}:{self.base}"

    def can_express(self, x: GrossNumber) -> bool:
        n = _plain_int(x)
        # |n| <= base**digits - 1, without building a huge power.
        return n is not None and _exceeds(self.base, self.digits, abs(n))


class GrossBudget(NumeralSystem, _Value):
    """Gross-numbers under per-term digit budgets.

    A value is expressible when its canonical form has at most
    ``max_terms`` terms and every term satisfies: coefficient numerator
    and denominator each at most ``coeff_digits`` base-10 digits (in
    lowest terms, sign free), exponent a plain integer of at most
    ``exp_digits`` digits (sign free).
    """

    max_terms: int
    coeff_digits: int
    exp_digits: int

    def __post_init__(self):
        for name in ("max_terms", "coeff_digits", "exp_digits"):
            _at_least(getattr(self, name), 1, name)

    def describe(self) -> str:
        return f"gross:{self.max_terms}:{self.coeff_digits}:{self.exp_digits}"

    def term_fits(self, exponent: Rational, coefficient: Rational) -> bool:
        # At most d decimal digits, sign free, is |m| < 10**d.
        if exponent.denominator != 1 or not _exceeds(10, self.exp_digits, abs(exponent.numerator)):
            return False
        c = self.coeff_digits
        return _exceeds(10, c, abs(coefficient.numerator)) and _exceeds(10, c, coefficient.denominator)

    def can_express(self, x: GrossNumber) -> bool:
        if len(x.terms) > self.max_terms:
            return False
        return all(self.term_fits(e, c) for e, c in x.terms)


def expressible(sys: NumeralSystem, x: GrossNumber) -> bool:
    """True when x is writable in the system."""
    return sys.can_express(finite(x))


def _largest_int(sys: NumeralSystem) -> int | None:
    """The greatest plain integer a built-in kind writes, refused if too long to build; else None."""
    if isinstance(sys, Piraha):
        return 2
    if isinstance(sys, BoundedFinite):
        return _writable_power(sys.base, sys.digits) - 1
    if isinstance(sys, GrossBudget):
        # Finite integers are single exponent-0 terms, so only the
        # coefficient budget matters.
        return _writable_power(10, sys.coeff_digits) - 1
    return None


def max_finite(sys: NumeralSystem) -> GrossNumber:
    """The greatest expressible finite positive integer of the system."""
    largest = _largest_int(sys)
    if largest is None:
        raise NoFiniteNumerals(f"{sys!r} expresses no finite positive integer")
    return finite(largest)


def min_infinite(sys: NumeralSystem) -> GrossNumber:
    """The least expressible infinite positive integer of the system.

    Only the budgeted gross-number kind reaches past the finite.  Its
    smallest infinite integer uses the smallest positive coefficient at
    exponent 1, and, when a second term is allowed, subtracts the largest
    expressible finite integer.  A third term could only lower the value
    further via a negative exponent, which would stop the value from being
    an integer, so budgets beyond two terms change nothing.
    """
    if isinstance(sys, GrossBudget):
        largest = _largest_int(sys)
        least = gross_term(Fraction(1, largest), 1)
        if sys.max_terms >= 2:
            least = least - largest
        return least
    raise NoInfiniteNumerals(f"{sys.describe()} expresses no infinite integer")


def _int_range(sys: NumeralSystem) -> tuple[int, int] | None:
    """``(lo, hi)`` such that a built-in system writes exactly the plain integers from lo to hi.

    None for a subclass, whose ``can_express`` may differ, and where
    ``_writable_power`` refuses the bound as too long to build.
    """
    kind = type(sys)
    if kind not in (Piraha, BoundedFinite, GrossBudget):
        return None
    try:
        largest = _largest_int(sys)
    except InvalidArgument:
        return None
    return (1, largest) if kind is Piraha else (-largest, largest)


def measure_in(sys: NumeralSystem, s: IntervalSet) -> Measurement:
    """Canonical measurement of s, admitted only if the system can write it.

    Every numeral of the written-out measurement, in the order
    ``serialized_numerals`` lists them (mu, piece endpoints, nonzero
    offsets, target endpoints), must be expressible, and the first one that
    is not names the failure.  The gate reads the rows (``measure._rows``)
    of the canonical runs, computed on ints while the set's ends are plain
    integers, before anything is boxed: mu comes first, and the measurement
    is built only once the set is admitted.  Measurement is relative to the
    system: {1,2} is measurable with only the numerals 1 and 2, while
    {1,2,3} is not, because its element count already has no name there.
    A plain-integer numeral is tested against the system's ``_int_range``,
    where it has one, and every other numeral through ``can_express``.
    """
    # Imported here so that queries about a system alone load neither
    # measure nor sets.
    from .measure import _canonical_runs, _nonempty, _rows, canonical_measurement
    from .sets import _set_arg

    bounds = _int_range(sys)
    # An int in [low..high] is written; the range is empty where there are no bounds.
    low, high = bounds or (1, 0)

    def writable(x: int | GrossNumber) -> bool:
        """Whether the system writes ``x``, an int outside [low..high] or a GrossNumber."""
        if type(x) is int:
            return bounds is None and sys.can_express(finite(x))
        terms = x.terms
        if bounds is None or len(terms) > 1 or terms and (terms[0][0] or type(terms[0][1]) is not int):
            return sys.can_express(x)
        return low <= (terms[0][1] if terms else 0) <= high

    s = _nonempty(_set_arg(s))
    runs = _canonical_runs(s)
    for _, values in _rows(runs[-1][1], runs, s):
        for x in values:
            if not (type(x) is int and low <= x <= high or writable(x)):
                raise NotExpressible(finite(x), sys.describe())
    return canonical_measurement(s)


def parse_system(descriptor: str) -> NumeralSystem:
    """Build a system from its descriptor string.

    Forms: ``piraha``, ``finite:<digits>:<base>``,
    ``gross:<max_terms>:<coeff_digits>:<exp_digits>``.  Each number field
    is unsigned ASCII digits, few enough to read as an int; a field that
    is not is reported at its own offset in the descriptor.
    """
    _text_arg(descriptor, "descriptor")
    fields = descriptor.split(":")
    if fields == ["piraha"]:
        return Piraha()
    kind, numbers = fields[0], fields[1:]
    if len(numbers) != {"finite": 2, "gross": 3}.get(kind):
        raise ParseError("unrecognized system descriptor", descriptor, 0)
    position = len(kind) + 1
    values = []
    for field in numbers:
        if not (field.isascii() and field.isdigit()):
            raise ParseError(
                f"bad system descriptor ({field!r} is not a decimal integer)", descriptor, position
            )
        try:
            values.append(int(field))
        except ValueError:
            # Past the interpreter's int-to-string digit limit.
            raise ParseError(
                "bad system descriptor (number has too many digits)", descriptor, position
            ) from None
        position += len(field) + 1
    try:
        if kind == "gross":
            return GrossBudget(*values)
        system = BoundedFinite(*values)
        limit = _writable_digits()
        if _exceeds(system.base, system.digits, 10, limit):
            raise InvalidArgument(f"base**digits has more than {limit} decimal digits")
        return system
    except ValueError as exc:
        raise ParseError(f"bad system descriptor ({exc})", descriptor, 0) from None
