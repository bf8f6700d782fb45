"""Exact arithmetic on gross-numbers.

A gross-number is a finite sum of terms ``c * ①^p`` with exact rational
coefficient ``c`` and exact rational exponent ``p``, where ① (grossone) is
the infinite unit: the number of elements of the set of natural numbers,
larger than every finite integer.  Values are kept in a unique canonical
form (strictly descending exponents, no zero coefficients, zero is the
empty sum), which makes equality structural and comparison decidable by
the sign of the leading coefficient.

Each exponent and coefficient is an exact rational held as a plain ``int``
when it is integral and as a ``Fraction`` in lowest terms otherwise, so the
integer-valued sums that counting produces run on native int arithmetic.
``int`` and ``Fraction`` agree on equality, ordering and hashing, so the
choice never changes a result.

No floating point is used anywhere; decimal literals are converted to
exact rationals during parsing.
"""

from __future__ import annotations

import enum
import re
import sys
from fractions import Fraction
from heapq import heappop, heappush
from operator import ge, gt, itemgetter, le, lt

from .errors import DivideByZero, InvalidArgument, NotExact, ParseError, _shown

__all__ = [
    "GrossNumber",
    "Sign",
    "NumberClass",
    "GROSSONE",
    "ZERO",
    "ONE",
    "finite",
    "gross_term",
    "add",
    "sub",
    "mul",
    "div_exact",
    "cmp",
    "classify",
    "parse_numeral",
    "parse_numeral_prefix",
    "format_numeral",
]

Rational = int | Fraction
#: One addend of a gross-number: (exponent, coefficient), coefficient != 0.
#: Built terms hold each entry as an ``int`` when integral, else a Fraction.
Term = tuple[Rational, Rational]

GROSS_SYMBOL = "①"  # ①
GROSS_ASCII = "G1"
_SIGN_CHARS = frozenset("+-−")  # ASCII plus/minus and the Unicode minus sign
_MINUS_CHARS = frozenset("-−")
# Plain ASCII digits (str.isdigit() accepts the circled digit of ① itself).  A
# dot starts a decimal part only before digits, so '..' is never swallowed.
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")
_SPACE = re.compile(r"\s*")  # exactly the characters where str.isspace() holds
_SEPARATOR = re.compile(r"\s*([+\-−])\s*")  # the sign between two terms of a sum
# A whole term in one match: an optional coefficient, then '*'? and the base
# with an optional exponent, no whitespace inside.  A rational's digit runs
# may not be followed by '.', '/' or a digit, and its denominator is nonzero;
# the base may not be followed by '^' it did not read, and a coefficient
# alone may not be followed by '*' or the base.  So where the character
# scanner would read on or fail, this does not match, and the scanner runs.
_RATIONAL = r"([0-9]+)(?:\.([0-9]+)|/(?!0+(?![0-9]))([0-9]+))?(?![./0-9])"
_TERM = re.compile(
    rf"(?:{_RATIONAL})?(?:(?(1)\*?)(①|G1)(?:\^(\()?([-+−]?){_RATIONAL}(?(5)\)))?(?!\^)"
    r"|(?!\s*(?:[*①]|G1)))"
)
# No number in a term this short is past any int-to-string limit that can be
# set, so its digits convert without the scanner's limit check.
_SHORT_TERM = sys.int_info.str_digits_check_threshold
# The one spelling of a plain integer: a sign or none, touching ASCII digits.
# A whole field spelt so is a numeral of one exponent-0 term.
_INT = r"[+\-−]?[0-9]+"
_INT_FIELD = re.compile(_INT)


def _int_field(text: str) -> int | None:
    """``text`` as an int when all of it is a plain integer, the int ``parse_numeral`` reads from it.

    That is ``_INT`` in at most ``_SHORT_TERM`` characters, leading zeros
    allowed, so ``int()`` reads it under any int-to-string limit.  Anything
    else, surrounding whitespace included, gives None and is left to the
    scanner, with its errors and positions.
    """
    if len(text) <= _SHORT_TERM and _INT_FIELD.fullmatch(text):
        # int() reads '+' and '-' but not the Unicode minus sign.
        return -int(text[1:]) if text[0] == "−" else int(text)
    return None


class Sign(enum.IntEnum):
    """Three-way comparison outcome, ordered NEGATIVE < ZERO < POSITIVE."""

    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


#: The Sign of an order -1, 0 or 1, read as ``_SIGNS[order]`` (index -1 is the last).
_SIGNS = (Sign.ZERO, Sign.POSITIVE, Sign.NEGATIVE)


class _ValueType(type):
    """A value class's fields are its bases' fields, then the names it annotates: read-only slots.

    ``__init__`` takes a default from the class body, where it would clash with the slot, and runs the
    ``__post_init__`` the class had when it was created, if any, so no later assignment, on the class
    or on a base, changes the check its constructor runs; ``_trusted`` sets fields unchecked;
    ``_values`` is their tuple.  A ``__slots__`` tuple in the class body adds private slots that are
    no fields: no constructor sets them, and equality, hashing, ``repr`` and pickling ignore them.

    A class whose body sets ``_sealed_check`` to ``(its __post_init__, reason)`` has subclasses that
    must run that check: any other is refused here, as the subclass is made, where no mixin's
    ``__init_subclass__`` can skip the refusal.
    """

    def __new__(mcs, name, bases, namespace):
        own = tuple(namespace.get("__annotations__", ()))
        inherited = [f for base in reversed(bases) for f in getattr(base, "__match_args__", ())]
        defaults = {f: d for base in reversed(bases) for f, d in getattr(base, "_defaults", {}).items()}
        defaults.update((f, namespace.pop(f)) for f in own if f in namespace)
        fields = tuple(dict.fromkeys([*inherited, *own]))
        slots = tuple(f for f in own if f not in inherited) + tuple(namespace.pop("__slots__", ()))
        cls = super().__new__(mcs, name, bases, {"__slots__": slots, **namespace})
        cls._defaults, cls.__match_args__ = defaults, fields
        if [f in defaults for f in fields] != sorted(f in defaults for f in fields):
            raise TypeError(f"{name} has a field without a default after one with a default")
        check = getattr(cls, "__post_init__", None)
        for base in cls.__mro__[1:]:
            sealed = base.__dict__.get("_sealed_check")
            if sealed is not None and check is not sealed[0]:
                owner = base.__name__
                raise TypeError(f"{owner} subclass {name} may not replace {owner}.__post_init__: {sealed[1]}")
        scope = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
        scope.update(_defaults=defaults, _new=object.__new__)
        params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}" for f in fields)
        sets = "".join(f"\n    _set_{f}(self, {f})" for f in fields) or "\n    pass"
        post = ""
        if check is not None:
            scope["_check"] = check
            post = "\n    _check(self)"
        exec(
            f"def __init__(self{params}):{sets}{post}\n"
            f"@classmethod\ndef _trusted(cls{params}):\n    self = _new(cls){sets}\n    return self\n"
            f"def _values(self):\n    return ({''.join(f'self.{f}, ' for f in fields)})",
            scope,
        )
        scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls._trusted, cls._values = scope["__init__"], scope["_trusted"], scope["_values"]
        return cls


class _Value(metaclass=_ValueType):
    """Base of the frozen value classes, compared, hashed, shown and pickled by their fields' tuple."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        # Through the constructor, so that a pickle is checked as any other input.
        return type(self), self._values()

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NumberClass(_Value):
    """Classification flags of a gross-number.

    ``is_finite`` and ``is_infinite`` are mutually exclusive for nonzero
    values without purely infinitesimal content; ``is_infinitesimal`` holds
    exactly when the value is nonzero and every exponent is negative.
    """

    is_integer: bool
    is_finite: bool
    is_infinite: bool
    is_infinitesimal: bool


def _exact(value: Rational) -> Rational:
    """``value`` as an ``int`` when integral, else as a ``Fraction``.

    The exact-type tests come first because ``isinstance`` against Fraction
    goes through the numbers ABC machinery; bool and other subclasses of
    int or Fraction take the slow path and come out as plain types.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, (int, Fraction)):
        return _exact(Fraction(value))
    raise TypeError(f"expected an exact rational, got {kind.__name__}")


# Exact types only: bool and float entries are rejected, not converted.
_EXACT_TYPES = (int, Fraction)


def _ordering(test):
    """The GrossNumber method for the order ``test``, one of ``lt``, ``le``, ``gt`` and ``ge``.

    ``test`` reads the sign of ``_compare_terms``, one-term operands
    included.  A non-number gives NotImplemented.
    """

    def method(self, other):
        terms = _operand_terms(other)
        if terms is None:
            return NotImplemented
        return test(_compare_terms(self.terms, terms), 0)

    method.__name__ = f"__{test.__name__}__"
    method.__qualname__ = f"GrossNumber.{method.__name__}"
    return method


class GrossNumber(_Value):
    """Canonical finite sum of terms ``c * ①^p``.

    ``terms`` is ordered by strictly descending exponent and never contains
    a zero coefficient; the empty tuple is zero.  Instances are immutable
    and safe to share between threads.
    """

    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        # Checks terms from outside; the core builds its own results through ``_built``.
        prev = None
        for item in self.terms:
            if not (isinstance(item, tuple) and len(item) == 2):
                raise InvalidArgument(f"malformed term {_shown(item, repr)}")
            exponent, coefficient = item
            if type(exponent) not in _EXACT_TYPES or type(coefficient) not in _EXACT_TYPES:
                raise InvalidArgument("term entries must be ints or Fractions")
            if coefficient == 0:
                raise InvalidArgument("zero coefficient in canonical form")
            if prev is not None and exponent >= prev:
                raise InvalidArgument("exponents must be strictly descending")
            prev = exponent
        # Held as ints where integral, like every built entry, so sums stay on int paths.
        object.__setattr__(self, "terms", tuple((_exact(e), _exact(c)) for e, c in self.terms))

    # ---------------------------------------------------------------- factories

    @staticmethod
    def from_terms(pairs) -> "GrossNumber":
        """Build the canonical gross-number from (exponent, coefficient) pairs.

        Each entry is read as an exact rational (a float is a TypeError).
        Like exponents are merged and zero coefficients dropped, so any
        ordering or duplication in the input yields the same value.
        """
        return _summed([(_exact(e), _exact(c)) for e, c in pairs])

    # ---------------------------------------------------------------- queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> Term:
        """Highest-exponent term; the value's magnitude class and sign live here."""
        if not self.terms:
            raise InvalidArgument("zero has no leading term")
        return self.terms[0]

    def sign(self) -> Sign:
        return _SIGNS[_compare_terms(self.terms, ())]

    def coefficient(self, exponent: Rational) -> Fraction:
        e = _exact(exponent)
        for exp, coeff in self.terms:
            if exp == e:
                return Fraction(coeff)
        return Fraction(0)

    def as_fraction(self) -> Fraction:
        """The value as an exact rational; requires a pure finite value."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return Fraction(self.terms[0][1])
        raise InvalidArgument(f"{_shown(self)} is not a plain rational")

    def as_int(self) -> int:
        q = self.as_fraction()
        if q.denominator != 1:
            raise InvalidArgument(f"{_shown(self)} is not a plain integer")
        return q.numerator

    # ---------------------------------------------------------------- arithmetic

    def __add__(self, other) -> "GrossNumber":
        terms = _operand_terms(other)
        if terms is None:
            return NotImplemented
        return _built(_merge(self.terms, terms, 1))

    __radd__ = __add__

    def __neg__(self) -> "GrossNumber":
        return _built(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> "GrossNumber":
        terms = _operand_terms(other)
        if terms is None:
            return NotImplemented
        return _built(_merge(self.terms, terms, -1))

    def __rsub__(self, other) -> "GrossNumber":
        terms = _operand_terms(other)
        if terms is None:
            return NotImplemented
        return _built(_merge(terms, self.terms, -1))

    def __mul__(self, other) -> "GrossNumber":
        terms = _operand_terms(other)
        if terms is None:
            return NotImplemented
        if len(terms) == 1:
            return _built(_scaled(self.terms, *terms[0]))
        if len(self.terms) == 1:
            return _built(_scaled(terms, *self.terms[0]))
        (la, da), (lb, db) = _scales(self.terms), _scales(terms)
        scale = _lcm(la, lb)
        a, b = _int_keyed(self.terms, scale, da), _int_keyed(terms, scale, db)
        product = _merged((k1 + k2, c1 * c2) for k1, c1 in a for k2, c2 in b)
        return _built(_unkeyed(product, scale, 1, da * db))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GrossNumber":
        if _operand_terms(other) is None:
            return NotImplemented
        return div_exact(self, other)

    def __pow__(self, power: int) -> "GrossNumber":
        if not isinstance(power, int) or power < 0:
            raise InvalidArgument("only nonnegative integer powers are defined")
        result = ONE
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # ---------------------------------------------------------------- ordering

    __lt__ = _ordering(lt)
    __le__ = _ordering(le)
    __gt__ = _ordering(gt)
    __ge__ = _ordering(ge)

    def __eq__(self, other):
        terms = _operand_terms(other)
        return NotImplemented if terms is None else self.terms == terms

    def __hash__(self):
        # Finite rationals hash like the rational they equal, so mixed-type
        # dict keys stay consistent with __eq__.
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return hash(self.terms[0][1])
        return hash(self.terms)

    def __str__(self) -> str:
        return format_numeral(self)

    def __repr__(self) -> str:
        return f"GrossNumber({format_numeral(self)!r})"


def _built(terms: tuple[Term, ...]) -> GrossNumber:
    """The GrossNumber of terms the core made canonical itself, ints where integral; not re-checked."""
    return GrossNumber._trusted(terms)


def _from_int(n: int) -> GrossNumber:
    """The GrossNumber of an int: its one exponent-0 term, none for zero; not re-checked."""
    return GrossNumber._trusted(((0, n),) if n else ())


def _key(x: GrossNumber) -> tuple:
    """The order key of the gross-integer ``x``, a flat tuple that orders as the numbers do.

    One group ``(s, s*e, c)`` per term of exponent ``e > 0``, in descending
    order, where ``s`` (+1 or -1) is the sign of ``c``, then ``0`` and the
    finite part ``c0``.  So ``7`` is ``(0, 7)``, zero is ``(0, 0)`` and
    ``①-1`` is ``(1, 1, 1, 0, -1)``.  Python's tuple order on keys is the
    order of the numbers, and the key of ``y + 1`` is the key of ``y`` with
    1 added to its last entry.  This holds only because a gross-integer has
    no negative exponent: its finite part is always last, so no term can
    follow it.  ``_from_key`` turns a key back into its number.
    """
    terms = x.terms
    if not terms:
        return (0, 0)
    if terms[0][0] == 0:
        # A finite gross-integer is one int term.
        return (0, terms[0][1])
    key = []
    c0 = 0
    for e, c in terms:
        if e:
            key += (1, e, c) if c > 0 else (-1, -e, c)
        else:
            c0 = c
    key += (0, c0)
    return tuple(key)


def _key_terms(key: tuple, sign: int = 1) -> list[Term]:
    """The terms ``(e, sign * c)`` of the key's positive-exponent groups, in descending order."""
    return [(key[i] * key[i + 1], sign * key[i + 2]) for i in range(0, len(key) - 2, 3)]


def _from_key(key: tuple) -> GrossNumber:
    """The gross-integer whose order key is ``key``, the inverse of ``_key``; not re-checked."""
    if len(key) == 2:
        return _from_int(key[1])
    terms = _key_terms(key)
    if key[-1]:
        terms.append((0, key[-1]))
    return _built(tuple(terms))


def _merge(a: tuple[Term, ...], b: tuple[Term, ...], sign: int) -> tuple[Term, ...]:
    """The canonical terms of ``a + sign * b``, from one pass over two descending term tuples.

    One-term operands take the same pass; an integral sum of Fraction
    coefficients comes out an int.
    """
    out: list[Term] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea > eb:
            out.append(a[i])
            i += 1
        elif ea < eb:
            out.append(b[j] if sign == 1 else (eb, -cb))
            j += 1
        else:
            c = ca + cb if sign == 1 else ca - cb
            # A sum involving a Fraction is a Fraction, integral or not, and
            # nonzero unless integral.
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            if type(c) is not int or c:
                out.append((ea, c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:] if sign == 1 else ((e, -c) for e, c in b[j:]))
    return tuple(out)


def _scaled(terms: tuple[Term, ...], e0: Rational, c0: Rational) -> tuple[Term, ...]:
    """The canonical terms of ``terms`` times the one term ``c0 * ①^e0``, for ``c0 != 0``.

    Every exponent moves by the same ``e0`` and no product of nonzero
    coefficients is zero, so the result is already descending and canonical.
    """
    out = []
    for e, c in terms:
        e += e0
        c *= c0
        # A sum or product involving a Fraction is a Fraction, integral or not.
        if type(e) is not int and e.denominator == 1:
            e = e.numerator
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        out.append((e, c))
    return tuple(out)


def _lcm(a: int, b: int) -> int:
    """The least common multiple of two positive ints, by Euclid's algorithm."""
    x, y = a, b
    while y:
        x, y = y, x % y
    return a // x * b


def _key_scale(terms) -> int:
    """L, the lcm of the denominators of the exponents of ``terms``.

    Each exponent ``e`` times L, or times any multiple of L, is an int, its
    key, and keys order and compare as the exponents do.  Coefficients are
    not read: ``_scales`` also gives D, whose lcm grows with every new
    coefficient denominator.
    """
    scale = 1
    for e, _ in terms:
        if type(e) is not int and scale % e.denominator:
            scale = _lcm(scale, e.denominator)
    return scale


def _scales(terms) -> tuple[int, int]:
    """L and D of ``terms`` from one pass: the lcms of their exponents' and of their coefficients' denominators."""
    el = d = 1
    for e, c in terms:
        if type(e) is not int and el % e.denominator:
            el = _lcm(el, e.denominator)
        if type(c) is not int and d % c.denominator:
            d = _lcm(d, c.denominator)
    return el, d


def _int_keyed(terms, scale: int, d: int) -> list[Term] | tuple[Term, ...]:
    """``terms`` with each exponent ``e`` keyed as the int ``e * scale`` and each coefficient times ``d``.

    ``scale`` is a multiple of each exponent's denominator and ``d`` of each
    coefficient's, so every entry comes out an int, and products and sums
    of them run on int arithmetic; ``_unkeyed`` divides ``d`` back out of a
    result.  Unchanged when both are 1.
    """
    if scale == 1 and d == 1:
        return terms
    return [
        (e * scale if type(e) is int else e.numerator * (scale // e.denominator),
         c * d if type(c) is int else c.numerator * (d // c.denominator))
        for e, c in terms
    ]


def _ratio(n: int, d: int) -> Rational:
    """``n / d`` for ints with ``d > 0``: an int when integral, else a Fraction."""
    return Fraction(n, d) if n % d else n // d


def _unkeyed(terms, scale: int, m: int, d: int) -> tuple[Term, ...]:
    """The terms of keyed ``terms``: each key back as its exact exponent, each coefficient times ``m / d``."""
    if m != d:
        terms = [(k, _ratio(c * m, d) if type(c) is int else _ratio(c.numerator * m, c.denominator * d))
                 for k, c in terms]
    if scale == 1:
        return tuple(terms)
    return tuple([(_ratio(k, scale), c) for k, c in terms])


_first = itemgetter(0)


def _merged(pairs) -> list[Term]:
    """The canonical keyed terms of (key, coefficient) pairs: like keys summed, zeros dropped, descending."""
    merged: dict = {}
    for k, c in pairs:
        if k in merged:
            c += merged[k]
        merged[k] = c
    out = []
    for k, c in sorted(merged.items(), key=_first, reverse=True):
        if type(c) is int:
            if c:
                out.append((k, c))
        elif c.denominator != 1:
            out.append((k, c))
        elif c:
            # A sum or product involving a Fraction is a Fraction, integral or not.
            out.append((k, c.numerator))
    return out


def _canonical_terms(pairs: list[Term]) -> tuple[Term, ...]:
    """The canonical terms of exact (exponent, coefficient) pairs in any order, repeats allowed.

    Like exponents merge on their int keys (see ``_key_scale``), and each
    key turns back into the input exponent it was made from, so no exponent
    is built again.
    """
    scale = _key_scale(pairs)
    if scale == 1:
        return tuple(_merged(pairs))
    exponents = {}
    keyed = []
    for e, c in pairs:
        k = e * scale if type(e) is int else e.numerator * (scale // e.denominator)
        exponents[k] = e
        keyed.append((k, c))
    return tuple([(exponents[k], c) for k, c in _merged(keyed)])


def _summed(pairs: list[Term]) -> GrossNumber:
    """The GrossNumber of exact pairs in any order, like exponents summed; not re-checked."""
    return _built(_canonical_terms(pairs))


def _compare_terms(a: tuple[Term, ...], b: tuple[Term, ...]) -> int:
    """The sign, -1, 0 or 1, of ``a - b``: the first place the descending tuples differ decides."""
    for (ea, ca), (eb, cb) in zip(a, b):
        if ea != eb:
            # The larger exponent dominates; its coefficient's sign (negated
            # when it belongs to b) is the sign of the difference.
            if ea > eb:
                return 1 if ca > 0 else -1
            return -1 if cb > 0 else 1
        if ca != cb:
            return 1 if ca > cb else -1
    if len(a) > len(b):
        return 1 if a[len(b)][1] > 0 else -1
    if len(a) < len(b):
        return -1 if b[len(a)][1] > 0 else 1
    return 0


def _log2_floor(q: Rational) -> int:
    """The integer f with 2**f <= |q| < 2**(f + 1), for a nonzero q."""
    n, d = abs(q.numerator), q.denominator
    f = n.bit_length() - d.bit_length()
    return f if (n >= d << f if f >= 0 else n << -f >= d) else f - 1


def _power_order(a: Rational, k: int, b: Rational, j: int) -> int | None:
    """The sign, -1 or 1, of ``|a|**k - |b|**j`` for nonzero a, b and k, j >= 1.

    ``|a|**k`` lies in ``[2**(k*f), 2**(k*(f + 1)))`` for ``f = _log2_floor(a)``,
    and ``|b|**j`` likewise; where the two ranges do not overlap they order
    the powers, and neither power is built.  None where they overlap.
    """
    if type(a) is int and type(b) is int:
        f, g = a.bit_length() - 1, b.bit_length() - 1
    else:
        f, g = _log2_floor(a), _log2_floor(b)
    if k * (f + 1) <= j * g:
        return -1
    if k * f >= j * (g + 1):
        return 1
    return None


def _operand_terms(value) -> tuple[Term, ...] | None:
    """The terms of an operand of an operator or of ``finite``; None if it is no number.

    An int or a Fraction is read as its own term, with no GrossNumber built for it.
    """
    kind = type(value)
    if kind is not int:
        if isinstance(value, GrossNumber):
            return value.terms
        try:
            value = _exact(value)
        except TypeError:
            return None
    return ((0, value),) if value else ()


def finite(value: Rational | GrossNumber) -> GrossNumber:
    """The gross-number equal to an int, a Fraction or a gross-number.

    Every value type reads its numeric fields through this; anything else,
    a float included, is a TypeError.  A GrossNumber is returned as it is and
    an int boxed by ``_from_int``; a bool or a subclass takes the general path.
    """
    kind = type(value)
    if kind is GrossNumber:
        return value
    if kind is int:
        return _from_int(value)
    if isinstance(value, GrossNumber):
        return value
    terms = _operand_terms(value)
    if terms is None:
        raise TypeError(f"cannot interpret {_shown(value, repr)} as a gross-number")
    return _built(terms)


def gross_term(coefficient: Rational = 1, exponent: Rational = 1) -> GrossNumber:
    """The single term ``coefficient * ①^exponent``."""
    c = _exact(coefficient)
    if c == 0:
        return ZERO
    return _built(((_exact(exponent), c),))


ZERO = GrossNumber()
ONE = GrossNumber(((0, 1),))
GROSSONE = GrossNumber(((1, 1),))


# -------------------------------------------------------------------- operations


def add(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """Exact termwise sum in canonical form."""
    return finite(x) + finite(y)


def sub(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    return finite(x) - finite(y)


def mul(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """Exact distributive product; exponents of terms add."""
    return finite(x) * finite(y)


def div_exact(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """The q with q*y == x, whenever a finite-term q exists.

    Descending long division: each step divides the remainder's leading
    term by the divisor's, which clears it, and subtracts that quotient term
    times the rest of the divisor from the remainder.  The remainder is a
    dict from exponent key to coefficient with a heap of its keys, so a step
    costs the divisor's length, not the remainder's.  No remainder term can
    fall below the lowest exponent of x, so a quotient term below the lowest
    exponent of x less that of y could never cancel the remainder's last
    term: then no finite-term quotient exists at all, NotExact.  Single-term
    divisors always divide out.
    """
    x = finite(x)
    y = finite(y)
    if y.is_zero:
        raise DivideByZero("division by zero")
    if x.is_zero:
        return ZERO
    # The division runs on int exponent keys (see _key_scale) and on the
    # int coefficients of x * dx and y * dy; q is their quotient times dy / dx.
    (lx, dx), (ly, dy) = _scales(x.terms), _scales(y.terms)
    scale = _lcm(lx, ly)
    dividend, divisor = _int_keyed(x.terms, scale, dx), _int_keyed(y.terms, scale, dy)
    lead_exp, lead_coeff = divisor[0]
    tail = divisor[1:]
    lowest = dividend[-1][0] - divisor[-1][0]
    quotient: list[Term] = []
    remainder = dict(dividend)
    # Negated keys, so the heap's least is the remainder's leading key; a
    # key whose term has cancelled or been cleared stays until popped.  The
    # dividend's keys descend, so negated they already form a heap.
    keys = [-k for k, _ in dividend]
    # Each step lowers the remainder's leading exponent within a fixed
    # discrete lattice of rationals bounded below, so the loop finishes,
    # and quotient exponents strictly fall.
    while keys:
        rem_exp = -heappop(keys)
        rem_coeff = remainder.pop(rem_exp, 0)
        if not rem_coeff:
            continue
        q_exp = rem_exp - lead_exp
        if q_exp < lowest:
            raise NotExact(f"{_shown(y)} does not divide {_shown(x)}")
        if type(rem_coeff) is int and not rem_coeff % lead_coeff:
            q_coeff = rem_coeff // lead_coeff
        else:
            # Fraction(a, b), never a / b: two ints would divide to a float.
            q_coeff = _exact(Fraction(rem_coeff, lead_coeff))
        quotient.append((q_exp, q_coeff))
        for e, c in tail:
            k = q_exp + e
            c = remainder.get(k, 0) - q_coeff * c
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            if not c:
                del remainder[k]
                continue
            if k not in remainder:
                heappush(keys, -k)
            remainder[k] = c
    return _built(_unkeyed(quotient, scale, dy, dx))


def cmp(x: GrossNumber, y: GrossNumber) -> Sign:
    """Sign of x - y, decided by the leading coefficient of the difference.

    Sound because coefficients are finite rationals and ① dominates every
    finite value, so the highest-exponent term always wins.  The leading
    term of x - y is the first place the two canonical term tuples differ,
    so one walk over both decides without building the difference.
    """
    return _SIGNS[_compare_terms(finite(x).terms, finite(y).terms)]


def _is_gross_integer(x: GrossNumber) -> bool:
    """The gross-integer rule of :func:`classify`, read from the last term alone.

    Exponents strictly descend, so only the last term can break the rule:
    by a negative exponent, or by a non-integral coefficient on exponent 0.
    """
    exponent, coefficient = x.terms[-1] if x.terms else (0, 0)
    return exponent > 0 or (exponent == 0 and coefficient.denominator == 1)


def _gross_integer(value, what: str, error: type[Exception]) -> GrossNumber:
    """``value`` read through ``finite``; ``error`` names it as ``what`` unless a gross-integer."""
    x = finite(value)
    if not _is_gross_integer(x):
        raise error(f"{what} {_shown(x)} is not a gross-integer")
    return x


def _at_least(value, least: int, name: str) -> None:
    """Refuse a size parameter: TypeError unless a plain int, InvalidArgument below ``least``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise InvalidArgument(f"{name} must be at least {least}")


def _text_arg(value, name: str = "text") -> None:
    """Refuse a text argument that is not a str with TypeError, before any scanning."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a str, got {type(value).__name__}")


def _plain_int(x: GrossNumber) -> int | None:
    """x as an int when it is a finite gross-integer (zero or one exponent-0 term), else None."""
    exponent, coefficient = x.terms[0] if x.terms else (0, 0)
    if exponent == 0 and _is_gross_integer(x):
        return coefficient.numerator
    return None


def classify(x: GrossNumber) -> NumberClass:
    """Integer / finite / infinite / infinitesimal flags of a value.

    Integrality follows the grossone convention that ① is divisible by
    every finite positive integer: a value is an integer when it has no
    negative exponents, its exponent-0 coefficient is a plain integer, and
    its coefficients on any positive exponent, fractional ones included
    (``①^(1/2)``), are arbitrary rationals.  Exponents strictly descend, so
    the last canonical term alone decides the rule.  Every constructor that
    needs a gross-integer applies it through this module's private gate.
    """
    x = finite(x)
    lead_exp = x.terms[0][0] if x.terms else 0
    return NumberClass(
        is_integer=_is_gross_integer(x),
        is_finite=lead_exp == 0,
        is_infinite=lead_exp > 0,
        is_infinitesimal=lead_exp < 0,
    )


# -------------------------------------------------------------------- formatting


def _term_str(exponent: Rational, coefficient: Rational) -> str:
    # Types are tested before any compare, which a Fraction makes in Python.
    # str() of an int, or of a Fraction ("n/d"), is the numeral grammar's
    # rational form.  A built Fraction is never integral: a Fraction
    # coefficient is never ±1, and a Fraction exponent is always written in
    # parentheses, so that its quotient is not misread as part of the sum.
    if type(exponent) is int:
        if not exponent:
            return str(coefficient)
        power = "" if exponent == 1 else f"^{exponent}"
    else:
        power = f"^({exponent})"
    if type(coefficient) is not int:
        head = str(coefficient)
    else:
        head = "" if coefficient == 1 else "-" if coefficient == -1 else str(coefficient)
    return f"{head}{GROSS_SYMBOL}{power}"


def format_numeral(x: GrossNumber, ascii_mode: bool = False) -> str:
    """Canonical rendering; ``parse_numeral(format_numeral(x)) == x``.

    ``ascii_mode`` writes the base as ``G1`` instead of ``①``.  A finite
    rational, plain integers above all, is its one coefficient written by
    ``str``; other values are written term by term.
    """
    terms = finite(x).terms
    if not terms:
        return "0"
    chunks = []
    try:
        if len(terms) == 1 and terms[0][0] == 0:
            return str(terms[0][1])
        for exponent, coefficient in terms:
            piece = _term_str(exponent, coefficient)
            if chunks and not piece.startswith("-"):
                chunks.append("+")
            chunks.append(piece)
    except ValueError:
        # str() refuses integers past the interpreter's int-to-string limit.
        raise InvalidArgument("numeral has too many digits to write out") from None
    text = "".join(chunks)
    return text.replace(GROSS_SYMBOL, GROSS_ASCII) if ascii_mode else text


# -------------------------------------------------------------------- parsing


def _digit_runs(whole: str, frac: str | None, denom: str | None) -> tuple[int, int]:
    """The numerator and denominator spelt by a number's digit runs: ``whole.frac`` or ``whole/denom``."""
    if frac is not None:
        return int(whole + frac), 10 ** len(frac)
    return int(whole), 1 if denom is None else int(denom)


def _rational(whole: str, frac: str | None, denom: str | None) -> Rational:
    """The rational spelt by a number's digit runs, an int when integral."""
    if frac is None and denom is None:
        return int(whole)
    return _ratio(*_digit_runs(whole, frac, denom))


class _Scanner:
    """Character scanner for the numeral grammar; every text grammar builds on it.

    Grammar:

        numeral  := sign? term (sign term)*
        term     := rational | rational '*'? gross | gross
        gross    := ('①' | 'G1') ('^' exponent)?
        exponent := '(' sign? rational ')' | sign? rational
        rational := number | integer '/' integer
        number   := digits ('.' digits)?

    Whitespace may stand before and after a numeral, around the signs
    between its terms, around '*' and before the base, after '^', and
    inside an exponent's parentheses next to them and after its sign.  It
    may not stand before '^', around '/', inside a number or after the sign
    of an exponent without parentheses.
    A ParseError's position always counts from the start of ``text``.
    """

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def fail(self, message: str, pos: int | None = None):
        raise ParseError(message, self.text, self.pos if pos is None else pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        # Most tokens are not followed by whitespace; test one character first.
        if self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos = _SPACE.match(self.text, self.pos).end()

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.fail(f"expected {token!r}")
        self.pos += len(token)

    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.peek().isalpha():
            self.pos += 1
        return self.text[start : self.pos]

    def finish(self):
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")

    def at_gross(self) -> bool:
        return self.text.startswith(GROSS_SYMBOL, self.pos) or self.text.startswith(
            GROSS_ASCII, self.pos
        )

    def take_gross(self):
        self.pos += 1 if self.text.startswith(GROSS_SYMBOL, self.pos) else 2

    def take_sign(self) -> int | None:
        ch = self.peek()
        if ch in _SIGN_CHARS:
            self.pos += 1
            return -1 if ch in _MINUS_CHARS else 1
        return None

    def parse_number(self) -> Rational:
        found = _NUMBER.match(self.text, self.pos)
        if found is None:
            self.fail("expected a number")
        self.pos = found.end()
        int_part, _, frac_part = found.group().partition(".")
        try:
            return _rational(int_part, frac_part or None, None)
        except ValueError:
            # Past the interpreter's int-to-string digit limit.
            self.fail("number has too many digits", found.start())

    def parse_rational(self) -> Rational:
        value = self.parse_number()
        if self.peek() == "/":
            if value.denominator != 1:
                self.fail("fraction parts must be integers")
            self.pos += 1
            denom_pos = self.pos
            denom = self.parse_number()
            if denom.denominator != 1:
                self.fail("fraction parts must be integers", denom_pos)
            if denom == 0:
                self.fail("zero denominator", denom_pos)
            return _ratio(value, denom)
        return value

    def parse_exponent(self) -> Rational:
        self.skip_ws()
        if self.peek() == "(":
            self.pos += 1
            self.skip_ws()
            sign = self.take_sign() or 1
            self.skip_ws()
            value = self.parse_rational()
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')' closing the exponent")
            self.pos += 1
            return sign * value
        sign = self.take_sign() or 1
        return sign * self.parse_rational()

    def parse_term(self) -> Term:
        found = _TERM.match(self.text, self.pos)
        if found is None or not 0 < found.end() - self.pos <= _SHORT_TERM:
            return self.parse_term_by_characters()
        self.pos = found.end()
        whole, frac, denom, base, _, sign, e_whole, e_frac, e_denom = found.groups()
        coefficient = 1 if whole is None else _rational(whole, frac, denom)
        if base is None:
            return 0, coefficient
        if e_whole is None:
            return 1, coefficient
        n, d = _digit_runs(e_whole, e_frac, e_denom)
        return _ratio(-n if sign in _MINUS_CHARS else n, d), coefficient

    def parse_term_by_characters(self) -> Term:
        """The term at ``pos`` read one token at a time, with every error the grammar names."""
        if self.at_gross():
            coefficient = 1
        else:
            coefficient = self.parse_rational()
            mark = self.pos
            self.skip_ws()
            starred = self.peek() == "*"
            if starred:
                self.pos += 1
                self.skip_ws()
            if not self.at_gross():
                if starred:
                    self.fail(f"expected {GROSS_SYMBOL} after '*'")
                self.pos = mark
                return 0, coefficient
        self.take_gross()
        if self.peek() == "^":
            self.pos += 1
            exponent = self.parse_exponent()
        else:
            exponent = 1
        return exponent, coefficient

    def parse_interval(self) -> tuple[GrossNumber, GrossNumber]:
        """The endpoints of ``'[' numeral '..' numeral ']'``."""
        self.expect("[")
        lo = self.parse_sum()
        self.expect("..")
        hi = self.parse_sum()
        self.expect("]")
        return lo, hi

    def parse_sum(self) -> GrossNumber:
        self.skip_ws()
        terms: list[Term] = []
        minus = self.take_sign() == -1
        self.skip_ws()
        while True:
            exponent, coefficient = self.parse_term()
            terms.append((exponent, -coefficient if minus else coefficient))
            # A sign between terms, with any whitespace around it, read in one
            # match; where none follows, the numeral ends after its last term.
            found = _SEPARATOR.match(self.text, self.pos)
            if found is None:
                break
            self.pos = found.end()
            minus = found.group(1) != "+"
        if len(terms) == 1:
            # A term as read is canonical: its exponent and coefficient are
            # ints where integral; only a zero coefficient is dropped.
            return _built(tuple(terms)) if terms[0][1] else ZERO
        return _built(_canonical_terms(terms))


def parse_numeral_prefix(text: str, pos: int = 0) -> tuple[GrossNumber, int]:
    """Parse the longest numeral starting at ``pos``; returns (value, end).

    ``pos`` is an int from 0 to ``len(text)``, counted from the start.
    """
    _text_arg(text)
    _at_least(pos, 0, "pos")
    if pos > len(text):
        raise InvalidArgument(f"pos must be at most {len(text)}, the length of the text")
    scanner = _Scanner(text, pos)
    value = scanner.parse_sum()
    return value, scanner.pos


def parse_numeral(text: str) -> GrossNumber:
    """Parse a complete numeral; raises ParseError with a position otherwise."""
    _text_arg(text)
    scanner = _Scanner(text)
    value = scanner.parse_sum()
    scanner.finish()
    return value
