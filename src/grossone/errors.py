"""Exception types shared by every module of the package.

All domain failures derive from :class:`GrossoneError` so callers (and the
CLI) can distinguish them from programming errors.  Malformed input text is
always a :class:`ParseError`, which carries the offending position.
"""


class GrossoneError(Exception):
    """Base class for every error raised by this package."""


def _shown(value, write=str) -> str:
    """``write(value)`` for an error message, or a short stand-in if it is too long to write out.

    ``write`` is ``str`` or ``repr``.  A value past the interpreter's
    int-to-string digit limit cannot be written, and the error that names it
    must keep its own type.
    """
    try:
        return write(value)
    except ValueError:
        return "a numeral too long to write out"


class ParseError(GrossoneError, ValueError):
    """Malformed numeral, set expression or serialized form."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(message, text, position)
        self.text = text
        self.position = position

    def __str__(self) -> str:
        return f"{self.args[0]} at position {self.position} in {self.text!r}"


class InvalidArgument(GrossoneError, ValueError):
    """A value outside the domain an operation accepts.

    Examples are a reversed coordinate range, a non-integer threshold, a
    function parameter below its minimum, or a numeral too long to write
    out in decimal.
    """


class DivideByZero(GrossoneError, ZeroDivisionError):
    """Division by the zero gross-number."""


class NotExact(GrossoneError):
    """Long division finished with a nonzero remainder."""


class NonIntegerEndpoint(GrossoneError):
    """Interval endpoint is not a gross-integer."""


class EmptyIntervalRejected(GrossoneError):
    """Interval with lo > hi."""


class EmptySet(GrossoneError):
    """Operation requires a nonempty set."""


class NotSubsetOfRange(GrossoneError):
    """Set is not contained in the stated range [1..bound]."""


class NonIntegerOffset(GrossoneError):
    """Affine offset must be a gross-integer for integer sets."""


class InvalidMeasurement(GrossoneError):
    """Proposed pieces do not form a bijection from [1..mu] onto the target."""


class OverlappingTargets(GrossoneError):
    """Concatenation requires disjoint targets."""


class NotABijection(GrossoneError):
    """Supplied pieces are not a bijection onto their image."""


class NotASubset(GrossoneError):
    """Complement requires the inner target to lie inside the outer one."""


class PreconditionViolated(GrossoneError):
    """A named precondition of a theorem-level operation failed."""


class BoundExceeded(GrossoneError):
    """A configured finite execution bound was exhausted."""


class NoFiniteNumerals(GrossoneError):
    """System expresses no finite positive integer."""


class NoInfiniteNumerals(GrossoneError):
    """System expresses no infinite positive integer."""


class NotExpressible(GrossoneError):
    """A value needed by a measurement cannot be written in the system.

    The failing value is kept on :attr:`value` as a gross-number.
    """

    def __init__(self, value, system_name: str):
        self.value = value
        self.system_name = system_name
        super().__init__(f"{_shown(value)} is not expressible in {system_name}")


class BelowRange(GrossoneError):
    """Characterized number would fall below the function's first value."""


class NotFinite(GrossoneError):
    """Concrete resolution needs a finite defining bound."""
