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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log10
from sys import get_int_max_str_digits, int_info

from .errors import (
    InvalidArgument,
    NoFiniteNumerals,
    NoInfiniteNumerals,
    NotExpressible,
    ParseError,
)
from .gnum import GrossNumber, Rational, classify, finite, gross_term

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


#: floor(log10(2) * 2**32), so that ``k * _LOG10_2 >> 32`` never exceeds k*log10(2).
_LOG10_2 = 1292913986


def _digits10(n: int) -> int:
    """Base-10 digit count of an integer, sign ignored; 0 takes one digit.

    Counted from the bit length, because ``str`` refuses integers past the
    interpreter's int-to-string digit limit.  The estimate from the top
    bit is the count or one short of it (for any integer that fits in
    memory), and one power of ten settles which.
    """
    n = abs(n)
    if n < 10:
        return 1
    digits = ((n.bit_length() - 1) * _LOG10_2 >> 32) + 1
    return digits + 1 if n >= 10**digits else digits


def _writable_digits() -> int:
    """Most decimal digits ``str`` writes for an int; the default if the limit is off.

    A numeral past it could not be printed, and building it can take far
    longer than any answer is worth.  The process-wide limit is only read.
    """
    return get_int_max_str_digits() or int_info.default_max_str_digits


def _power_width(base: int, exponent: int, cap: int) -> float:
    """The decimal width of ``base**exponent``, within one, without the power.

    ``base**exponent - 1`` has ``ceil(exponent * log10(base))`` digits.
    Capping the exponent at ``4*cap`` keeps the product a finite float; a
    capped product still exceeds ``cap``, as log10(base) >= log10(2) > 1/4.
    """
    return min(exponent, 4 * cap) * log10(base)


def _writable_power(base: int, exponent: int) -> int:
    """``base**exponent``, refused before it is built if too long to write."""
    limit = _writable_digits()
    if _power_width(base, exponent, limit) > limit:
        raise InvalidArgument("numeral has too many digits to write out")
    return base**exponent


class NumeralSystem:
    """Marker base class; each kind implements the expressibility test."""

    def describe(self) -> str:
        raise NotImplementedError

    def can_express(self, x: GrossNumber) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Piraha(NumeralSystem):
    """The two-numeral counting scheme: everything past 2 is just "many"."""

    def describe(self) -> str:
        return "piraha"

    def can_express(self, x: GrossNumber) -> bool:
        return x == 1 or x == 2


@dataclass(frozen=True)
class BoundedFinite(NumeralSystem):
    """Fixed-width integers: 0 and every n with 1 <= |n| <= base**digits - 1."""

    digits: int
    base: int = 10

    def __post_init__(self):
        if self.digits < 1:
            raise ValueError("digits must be at least 1")
        if self.base < 2:
            raise ValueError("base must be at least 2")

    def describe(self) -> str:
        return f"finite:{self.digits}:{self.base}"

    @property
    def largest(self) -> int:
        return self.base**self.digits - 1

    def can_express(self, x: GrossNumber) -> bool:
        kind = classify(x)
        if not (kind.is_finite and kind.is_integer):
            return False
        n = abs(x.as_int())
        # Digit counts settle every n but those about as long as the power,
        # so a huge ``digits`` never has its power built.
        count = _digits10(n)
        width = _power_width(self.base, self.digits, count + 2)
        if count < width - 1:
            return True
        if count > width + 1:
            return False
        return n <= self.largest


@dataclass(frozen=True)
class GrossBudget(NumeralSystem):
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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    def describe(self) -> str:
        return f"gross:{self.max_terms}:{self.coeff_digits}:{self.exp_digits}"

    def term_fits(self, exponent: Rational, coefficient: Rational) -> bool:
        if exponent.denominator != 1:
            return False
        if _digits10(exponent.numerator) > self.exp_digits:
            return False
        return (
            _digits10(coefficient.numerator) <= self.coeff_digits
            and _digits10(coefficient.denominator) <= self.coeff_digits
        )

    def can_express(self, x: GrossNumber) -> bool:
        if len(x.terms) > self.max_terms:
            return False
        return all(self.term_fits(e, c) for e, c in x.terms)


def expressible(sys: NumeralSystem, x: GrossNumber) -> bool:
    """True when x is writable in the system."""
    return sys.can_express(finite(x))


def max_finite(sys: NumeralSystem) -> GrossNumber:
    """The greatest expressible finite positive integer of the system."""
    if isinstance(sys, Piraha):
        return finite(2)
    if isinstance(sys, BoundedFinite):
        return finite(_writable_power(sys.base, sys.digits) - 1)
    if isinstance(sys, GrossBudget):
        # Finite integers are single exponent-0 terms, so only the
        # coefficient budget matters.
        return finite(_writable_power(10, sys.coeff_digits) - 1)
    raise NoFiniteNumerals(f"{sys!r} expresses no finite positive integer")


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
        largest = _writable_power(10, sys.coeff_digits) - 1
        least = gross_term(Fraction(1, largest), 1)
        if sys.max_terms >= 2:
            least = least - largest
        return least
    raise NoInfiniteNumerals(f"{sys.describe()} expresses no infinite integer")


def measure_in(sys: NumeralSystem, s: IntervalSet) -> Measurement:
    """Canonical measurement of s, admitted only if the system can write it.

    Every serialized numeral of the measurement (mu, piece endpoints,
    nonzero offsets, target endpoints) must be expressible; the first one
    that is not names the failure.  Measurement is relative to the system:
    {1,2} is measurable with only the numerals 1 and 2, while {1,2,3} is
    not, because its element count already has no name there.
    """
    # Imported here so that queries about a system alone load neither
    # measure nor sets.
    from .measure import canonical_measurement, serialized_numerals

    m = canonical_measurement(s)
    for value in serialized_numerals(m):
        if not sys.can_express(value):
            raise NotExpressible(value, sys.describe())
    return m


def parse_system(descriptor: str) -> NumeralSystem:
    """Build a system from its descriptor string.

    Forms: ``piraha``, ``finite:<digits>:<base>``,
    ``gross:<max_terms>:<coeff_digits>:<exp_digits>``.
    """
    fields = descriptor.split(":")
    try:
        if fields == ["piraha"]:
            return Piraha()
        if fields[0] == "finite" and len(fields) == 3:
            system = BoundedFinite(digits=int(fields[1]), base=int(fields[2]))
            limit = _writable_digits()
            if _power_width(system.base, system.digits, limit) > limit:
                raise ValueError(f"base**digits has more than {limit} decimal digits")
            return system
        if fields[0] == "gross" and len(fields) == 4:
            return GrossBudget(
                max_terms=int(fields[1]),
                coeff_digits=int(fields[2]),
                exp_digits=int(fields[3]),
            )
    except ValueError as exc:
        raise ParseError(f"bad system descriptor ({exc})", descriptor, 0) from None
    raise ParseError("unrecognized system descriptor", descriptor, 0)
