"""Explicit measurements: described bijections from [1..mu] onto a set.

A set has mu elements exactly when someone can write down a bijection
from [1..mu] onto it.  Here "write down" means a finite list of
order-preserving shift pieces: consecutive index blocks, each moved by a
fixed integer offset.  That class is closed under the constructions this
module provides (concatenation for disjoint unions, composition with
further piecewise shifts, canonical injections between measured sets,
complements inside a measured whole, and the split of two equal-sized
overlapping sets), so every result is again an explicit measurement
rather than an existence claim.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import (
    BoundExceeded,
    EmptySet,
    InvalidArgument,
    InvalidMeasurement,
    NonIntegerOffset,
    NotABijection,
    NotASubset,
    OverlappingTargets,
    ParseError,
    PreconditionViolated,
    _shown,
)
from .gnum import (
    GrossNumber,
    Sign,
    _INT,
    _SHORT_TERM,
    _Scanner,
    _Value,
    _at_least,
    _from_int,
    _gross_integer,
    _int_field,
    _is_gross_integer,
    _key,
    _plain_int,
    _text_arg,
    classify,
    cmp,
    finite,
    format_numeral,
    parse_numeral,
)
from .sets import (
    GrossInterval,
    IntervalSet,
    _coalesce,
    _set_arg,
    cardinality,
    difference,
    intersect,
    is_subset,
    union,
)

__all__ = [
    "AffinePiece",
    "Measurement",
    "canonical_measurement",
    "min_extraction_measurement",
    "concat",
    "transport",
    "invert_pieces",
    "compare_measured",
    "canonical_injection",
    "complement_measurement",
    "intersection_split",
    "serialized_numerals",
    "to_text",
    "from_text",
    "to_jsonable",
    "from_jsonable",
    "to_json",
    "from_json",
]

#: Default cap on literal one-element-at-a-time extraction steps.
EXTRACTION_BOUND = 100_000


class AffinePiece(_Value):
    """One block of a measurement: indexes in ``domain`` shifted by ``offset``."""

    domain: GrossInterval
    offset: GrossNumber

    def __post_init__(self):
        if not isinstance(self.domain, GrossInterval):
            raise TypeError("domain must be a GrossInterval")
        object.__setattr__(self, "offset", _gross_integer(self.offset, "offset", NonIntegerOffset))

    @property
    def image(self) -> GrossInterval:
        return GrossInterval(self.domain.lo + self.offset, self.domain.hi + self.offset)

    def __str__(self) -> str:
        return f"{self.domain} -> {self.image}"


class Measurement(_Value):
    """A bijection from [1..mu] onto ``target``.

    Any Measurement in hand is a genuine measurement: domains partition
    [1..mu] contiguously, images are pairwise disjoint and cover the target
    exactly, and mu equals the target's element count.  ``Measurement(...)``
    reads ``mu`` through ``finite`` and checks that full invariant with
    ``_check_runs``, and so does every construction from pieces a caller
    supplies: ``transport`` and ``min_extraction_measurement``.
    ``from_text`` and ``from_json`` run the same check once over the runs
    they read, with plain integers as ints (``from_text`` reads a row of
    nothing else in one match).  They key each target row as they read it
    and check the cover on those keys, then build the result unchecked,
    each int boxed by ``gnum._from_int``, which shares the small ones.  For
    every caller, ``_check_runs`` compares the joined image runs with the
    target's order keys.  ``canonical_measurement`` (and through it
    ``complement_measurement`` and ``intersection_split``),
    ``numeral_system.measure_in``, which builds from the canonical runs it
    gated through ``_measured`` as ``canonical_measurement`` does, and
    ``concat`` build results that are bijections by construction, and do
    not check them again.

    The private slot ``_runs`` holds one ``(lo, hi, offset)`` run per piece,
    filled as the measurement is built: the runs ``_check_runs`` checked,
    or those ``_proven`` was given, with ints where the construction
    computed or read plain integers.  The writers read their numerals from
    it and from the target's order keys (see ``_rows``), so a plain-integer
    numeral is written from its int.  The slot is no field, so equality,
    hashing, ``repr`` and pickling ignore it; a pickle or copy is rebuilt
    through the constructor, which fills it again.  The writers rely on the
    check that fills it, so a subclass whose own or inherited
    ``__post_init__`` is not Measurement's is refused as it is created (see
    ``gnum._ValueType``).
    """

    __slots__ = ("_runs",)

    mu: GrossNumber
    pieces: tuple[AffinePiece, ...]
    target: IntervalSet

    def __post_init__(self):
        object.__setattr__(self, "mu", finite(self.mu))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        _hold_runs(self, _check_runs(self.mu, map(_run, self.pieces), self.target))

    # Against the check Measurement was created with, not the attribute bound later.
    _sealed_check = (__post_init__, "the writers and the gate rely on the base's bijection check and held runs")

    def apply(self, x) -> GrossNumber:
        """Image of index x; x must be a gross-integer in [1..mu]."""
        x = finite(x)
        if _is_gross_integer(x):
            for piece in self.pieces:
                if piece.domain.lo <= x <= piece.domain.hi:
                    return x + piece.offset
        raise InvalidArgument(f"{_shown(x)} is outside [1..{_shown(self.mu)}]")

    def invert(self, y) -> GrossNumber:
        """Index mapping to y; y must be a gross-integer in the target."""
        y = finite(y)
        if _is_gross_integer(y):
            for piece in self.pieces:
                if piece.domain.lo + piece.offset <= y <= piece.domain.hi + piece.offset:
                    return y - piece.offset
        raise InvalidArgument(f"{_shown(y)} is not in the measured set")

    def __str__(self) -> str:
        return to_text(self).rstrip("\n")


_hold_runs = Measurement._runs.__set__


def _run(piece) -> tuple:
    """The ``(lo, hi, offset)`` run of a piece a caller supplied."""
    if not isinstance(piece, AffinePiece):
        raise TypeError("pieces must be AffinePiece values")
    return piece.domain.lo, piece.domain.hi, piece.offset


def _check_runs(mu, runs, target) -> tuple:
    """The runs read from ``runs``, as a tuple; InvalidMeasurement unless they measure ``target`` with ``mu`` elements.

    ``mu`` and the entries of each ``(lo, hi, offset)`` run are ints or
    gross-integer GrossNumbers, and ``runs`` is read once, in order, so a
    run that is made as it is read is checked before the next is made.  Ints
    are added as ints.  The domains must tile [1..mu] from 1, so the images
    hold mu elements exactly when no two of them overlap; their joined runs
    are then the parts that the canonical target must list part for part,
    which makes mu the target's element count.  The runs' ends are compared
    with the target's order keys: an int end ``x`` as the key ``(0, x)``,
    any other end as ``gnum._key`` gives it.
    """
    if not (type(mu) is int or _is_gross_integer(mu)) or mu <= 0:
        raise InvalidMeasurement(f"mu must be a positive gross-integer, got {_shown(finite(mu))}")
    read, images = [], []
    expected_lo = 1
    for run in runs:
        lo, hi, offset = run
        if lo != expected_lo:
            raise InvalidMeasurement(
                f"piece domains must be contiguous from 1: expected lo {_shown(finite(expected_lo))}, "
                f"got {_shown(finite(lo))}"
            )
        expected_lo = hi + 1
        read.append(run)
        images.append((lo + offset, hi + offset, 0))
    if not images:
        raise InvalidMeasurement("a measurement needs at least one piece")
    if hi != mu:
        raise InvalidMeasurement(
            f"piece domains must end at mu={_shown(finite(mu))}, got {_shown(finite(hi))}"
        )
    joined = _joined(sorted(images, key=itemgetter(0)))
    if joined is None:
        raise InvalidMeasurement("piece images must be pairwise disjoint")
    if not isinstance(target, IntervalSet) or not _covers(joined, *target._keys):
        raise InvalidMeasurement("piece images must cover exactly the target")
    return tuple(read)


def _covers(runs: list[list], los: tuple, his: tuple) -> bool:
    """Whether ``runs`` are, run for run, the parts with lower keys ``los`` and upper keys ``his``."""
    if len(runs) != len(los):
        return False
    for (lo, hi, _), key_lo, key_hi in zip(runs, los, his):
        if ((0, lo) if type(lo) is int else _key(lo)) != key_lo:
            return False
        if ((0, hi) if type(hi) is int else _key(hi)) != key_hi:
            return False
    return True


def _joined(runs) -> list[list] | None:
    """``(lo, hi, offset)`` runs given in order of lo, neighbours with equal offsets joined.

    None if two runs overlap.  Runs that all carry the same offset are plain
    intervals, and join into the parts of their union in canonical order.
    """
    joined: list[list] = []
    for lo, hi, offset in runs:
        if joined:
            last = joined[-1]
            if lo <= last[1]:
                return None
            if offset == last[2] and lo == last[1] + 1:
                last[1] = hi
                continue
        joined.append([lo, hi, offset])
    return joined


def _pieces(runs) -> tuple[AffinePiece, ...]:
    return tuple(AffinePiece(GrossInterval(lo, hi), offset) for lo, hi, offset in runs)


def _proven(mu: int | GrossNumber, runs, target: IntervalSet) -> Measurement:
    """The Measurement of ``(lo, hi, offset)`` runs this module proved a bijection onto ``target``.

    Not re-checked: mu, the endpoints and the offsets are ints or
    gross-integer GrossNumbers, the domains tile [1..mu] in order and the
    images cover the canonical target exactly, because the construction that
    calls this made them so, or, for ``_from_rows``, because ``_check_runs``
    has just checked them.  Each int is boxed by ``gnum._from_int``, so the
    domain ends of up to 1,023 elements, and small offsets, are its shared
    entries.  A GrossNumber is stored as it is.  The measurement holds the
    runs themselves, ints and all, in its ``_runs`` slot.
    """
    span, piece = GrossInterval._trusted, AffinePiece._trusted
    pieces = tuple([
        piece(
            span(_from_int(lo) if type(lo) is int else lo, _from_int(hi) if type(hi) is int else hi),
            _from_int(offset) if type(offset) is int else offset,
        )
        for lo, hi, offset in runs
    ])
    m = Measurement._trusted(_from_int(mu) if type(mu) is int else mu, pieces, target)
    _hold_runs(m, tuple(runs))
    return m


# ---------------------------------------------------------------- constructions


def _nonempty(s) -> IntervalSet:
    """``s``, refused with TypeError unless it is an IntervalSet, then with EmptySet if it is empty."""
    if _set_arg(s).is_empty:
        raise EmptySet("the empty set has no measurement")
    return s


def canonical_measurement(s: IntervalSet) -> Measurement:
    """The order-preserving measurement: k-th smallest element gets index k.

    Each part of the set becomes one piece whose offset aligns the next
    free index block with the part's left endpoint (see ``_canonical_runs``);
    the runs become GrossNumbers only as the pieces are built.
    """
    return _measured(s, _canonical_runs(s))


def _measured(s: IntervalSet, runs: list[tuple]) -> Measurement:
    """The canonical measurement of ``s`` built from ``runs``, which ``_canonical_runs(s)`` gave."""
    return _proven(runs[-1][1], runs, s)


def _canonical_runs(s: IntervalSet) -> list[tuple]:
    """The ``(lo, hi, offset)`` runs of the order-preserving measurement of ``s``.

    ``s`` is refused unless it is a nonempty IntervalSet (``_nonempty``).
    A plain-integer end is read from the set's order keys as the int its
    key holds, so the runs are computed on ints until the first end that is
    not, and as gross-numbers from there.  The last run's ``hi`` is mu.
    """
    s = _nonempty(s)
    runs = []
    hi = 0
    for part, key_lo, key_hi in zip(s.parts, *s._keys):
        # Aligned at the part's left endpoint, the block ends at its right one.
        lo = hi + 1
        offset = (key_lo[1] if len(key_lo) == 2 else part.lo) - lo
        hi = (key_hi[1] if len(key_hi) == 2 else part.hi) - offset
        runs.append((lo, hi, offset))
    return runs


def min_extraction_measurement(s: IntervalSet, bound: int = EXTRACTION_BOUND) -> Measurement:
    """Measurement built by repeatedly extracting the minimum element.

    Runs the construction literally, one element per step, for finite sets
    of at most ``bound`` elements; larger finite sets are refused, since
    the procedure is only legitimate as a finite number of operations.
    The parts are walked in order, so each step takes the element after
    the last one taken and no step runs a set difference.
    For sets with infinitely many elements the extraction order is forced
    (step n always picks the n-th smallest element), so the closed-form
    order-preserving measurement is returned instead of an endless loop;
    the result is the same measurement the extraction defines.  The set is
    checked first, as ``canonical_measurement`` checks it, and then
    ``bound``, a size parameter: an int of at least 0.
    """
    s = _nonempty(s)
    _at_least(bound, 0, "bound")
    size = cardinality(s)
    if classify(size).is_infinite:
        return canonical_measurement(s)
    steps = size.as_int()
    if steps > bound:
        raise BoundExceeded(
            f"{_shown(steps)} extraction steps exceed the configured bound {_shown(bound)}"
        )
    pieces = _pieces(_joined(_extraction_steps(s)))
    return Measurement(mu=size, pieces=pieces, target=s)


def _extraction_steps(s: IntervalSet):
    """(n, n, x - n) for the n-th smallest element x of a set of finitely many elements.

    Part counts are positive and sum to a finite size, so each is finite.
    Step n takes the next element of the current part, counted in ints where
    the part starts at a plain integer and as ``part.lo + k`` otherwise.
    """
    index = 0
    for part in s.parts:
        start = _plain_int(part.lo)
        lo = part.lo if start is None else start
        for k in range(part.count().as_int()):
            index += 1
            yield index, index, lo + k - index


def concat(first: Measurement, rest: Measurement) -> Measurement:
    """Measurement of a disjoint union; mu values add exactly.

    The second measurement's index block is appended after the first's,
    which is why the element count of a whole is the count of a part plus
    the count of the complement.  The runs are the two measurements' held
    runs, the second's shifted by the first's mu, as an int where it is a
    plain integer; the last domain ends at the total count.
    """
    if not (isinstance(first, Measurement) and isinstance(rest, Measurement)):
        kinds = f"{type(first).__name__} and {type(rest).__name__}"
        raise TypeError(f"expected two Measurements, got {kinds}")
    shared = intersect(first.target, rest.target)
    if not shared.is_empty:
        raise OverlappingTargets(f"targets share {_shown(shared)}")
    mu = _plain_int(first.mu)
    if mu is None:
        mu = first.mu
    runs = [*first._runs, *[(lo + mu, hi + mu, offset - mu) for lo, hi, offset in rest._runs]]
    return _proven(runs[-1][1], runs, union(first.target, rest.target))


def invert_pieces(pieces) -> tuple[AffinePiece, ...]:
    """Pieces of the inverse bijection, sorted by their new domains."""
    flipped = ((p.domain.lo + p.offset, p.domain.hi + p.offset, -p.offset) for p in pieces)
    return _pieces(sorted(flipped, key=itemgetter(0)))


def _compose(first, second) -> tuple[AffinePiece, ...]:
    """Pieces of x -> second(first(x)); first's images must lie in second's domains.

    Both sides are pairwise disjoint, so after sorting first by image and
    second by domain a two-pointer sweep meets every overlapping pair once.
    """
    images = sorted(
        ((p.domain.lo + p.offset, p.domain.hi + p.offset, p) for p in first),
        key=itemgetter(0),
    )
    domains = sorted(second, key=lambda q: q.domain.lo)
    runs: list[tuple] = []  # (domain lo, domain hi, offset)
    i = j = 0
    while i < len(images) and j < len(domains):
        img_lo, img_hi, p = images[i]
        q = domains[j]
        lo = img_lo if img_lo >= q.domain.lo else q.domain.lo
        if img_hi <= q.domain.hi:
            hi = img_hi
            i += 1
        else:
            hi = q.domain.hi
            j += 1
        if lo <= hi:
            runs.append((lo - p.offset, hi - p.offset, p.offset + q.offset))
    runs.sort(key=itemgetter(0))
    return _pieces(_joined(runs))


def transport(m: Measurement, bijection) -> Measurement:
    """Push a measurement through a further piecewise-shift bijection.

    ``bijection`` is a list of AffinePiece whose domains partition
    m.target and whose images are pairwise disjoint; the result measures
    the image set with the same mu.
    """
    pieces = tuple(bijection)
    if not pieces:
        raise NotABijection("a bijection needs at least one piece")
    for piece in pieces:
        if not isinstance(piece, AffinePiece):
            raise TypeError("bijection must consist of AffinePiece values")
    domains = _joined(sorted(((p.domain.lo, p.domain.hi, 0) for p in pieces), key=itemgetter(0)))
    if domains is None:
        raise NotABijection("bijection domains overlap")
    if domains != [[part.lo, part.hi, 0] for part in m.target.parts]:
        raise NotABijection("bijection domains do not partition the measured set")
    images = ((p.domain.lo + p.offset, p.domain.hi + p.offset, 0) for p in pieces)
    runs = _joined(sorted(images, key=itemgetter(0)))
    if runs is None:
        raise NotABijection("bijection images overlap")
    target = IntervalSet(tuple(GrossInterval(lo, hi) for lo, hi, _ in runs))
    return Measurement(mu=m.mu, pieces=_compose(m.pieces, pieces), target=target)


def compare_measured(first: Measurement, second: Measurement) -> Sign:
    """Order the sizes of two measured sets.

    Negative or Zero comes with an explicit injection of the first set
    into the second (see canonical_injection); injections both ways force
    Zero, the exact-arithmetic form of the Cantor-Bernstein conclusion.
    """
    return cmp(first.mu, second.mu)


def canonical_injection(first: Measurement, second: Measurement) -> tuple[AffinePiece, ...]:
    """An explicit injection first.target -> second.target when sizes allow.

    Routes each element back to its index and forward through the second
    measurement: x -> second(first⁻¹(x)).  Requires mu of the first to be
    at most mu of the second so every index stays in range.
    """
    if first.mu > second.mu:
        raise PreconditionViolated(
            f"no canonical injection: {_shown(first.mu)} elements into {_shown(second.mu)}"
        )
    # The inverse's images are exactly [1..first.mu], and the sweep stops
    # when they run out, so second's domains past first.mu are never used.
    return _compose(invert_pieces(first.pieces), second.pieces)


def complement_measurement(whole: Measurement, part: Measurement) -> Measurement:
    """Measurement of everything in the whole but not in the part.

    Witnesses that a measured subset is co-measured: the remainder's mu is
    exactly whole.mu - part.mu, strictly positive for a proper subset.
    """
    if not is_subset(part.target, whole.target):
        raise NotASubset(f"{_shown(part.target)} is not a subset of {_shown(whole.target)}")
    remainder = difference(whole.target, part.target)
    if remainder.is_empty:
        raise EmptySet("the part is the entire set; nothing remains to measure")
    return canonical_measurement(remainder)


def intersection_split(first: Measurement, second: Measurement) -> tuple[Measurement, Measurement]:
    """Measure both one-sided differences of two equal-sized overlapping sets.

    For distinct sets of the same size that share elements, what the first
    has beyond the intersection and what the second has beyond it are both
    nonempty and have the same number of elements.
    """
    if first.mu != second.mu:
        raise PreconditionViolated(
            "the sets must have the same number of elements, "
            f"got {_shown(first.mu)} and {_shown(second.mu)}"
        )
    a, b = first.target, second.target
    if intersect(a, b).is_empty:
        raise PreconditionViolated("the sets must share at least one element")
    if a == b:
        raise PreconditionViolated("the sets must be distinct")
    only_first = canonical_measurement(difference(a, b))
    only_second = canonical_measurement(difference(b, a))
    return only_first, only_second


# ---------------------------------------------------------------- serialization
#
# Every form spells out the rows of _rows in their order: ("mu", (mu,)), then
# ("piece", (lo, hi)) per run with the offset as a third numeral when it is
# nonzero (an identity block needs no shift), then ("target", (lo, hi)) per part.
# The writers read them from a measurement's held runs and its target's order
# keys, and measure_in from the runs it computes before any measurement is
# built, so a plain-integer numeral reaches each of them as an int.


def _rows(mu, runs, target: IntervalSet):
    """The rows of the measurement of ``runs`` onto ``target``, in the order every form spells them out.

    ``mu`` and the entries of each ``(lo, hi, offset)`` run are ints or
    GrossNumbers.  A target end whose order key has length 2 is the int
    that key holds; any other is the part's GrossNumber.
    """
    yield "mu", (mu,)
    for lo, hi, offset in runs:
        yield "piece", (lo, hi, offset) if (offset if type(offset) is int else offset.terms) else (lo, hi)
    for part, key_lo, key_hi in zip(target.parts, *target._keys):
        yield "target", (key_lo[1] if len(key_lo) == 2 else part.lo, key_hi[1] if len(key_hi) == 2 else part.hi)


def _writer(ascii_mode: bool):
    """The writer of one numeral of a row: ``format_numeral``, which writes an int by ``str``."""
    return (lambda x: format_numeral(x, True)) if ascii_mode else format_numeral


def _from_rows(rows) -> Measurement:
    """The measurement that rows like those of _rows describe, validated.

    A row's numerals are ints where they are plain integers and GrossNumbers
    otherwise.  Each row is checked as it is read, as ``GrossInterval`` and
    ``AffinePiece`` check their fields, with the gross-integer test skipped
    for ints, and each target row is keyed as it is read: a row of two ints
    ``lo <= hi`` is boxed unchecked with the keys ``(0, lo)`` and
    ``(0, hi)``, any other through ``GrossInterval`` and ``gnum._key``.  The
    target is then made canonical as ``make_set`` makes it, from those keys,
    so rows out of order, split or overlapping read as their union.  The
    invariant is checked once, by ``_check_runs``, on the target's keys, and
    the result is built through ``_proven``.
    """
    mu, runs = None, []
    parts, los, his = [], [], []
    span = GrossInterval._trusted
    for kind, values in rows:
        if kind == "mu":
            (mu,) = values
        elif kind == "piece":
            lo, hi = values[0], values[1]
            if type(lo) is not int or type(hi) is not int or lo > hi:
                GrossInterval(lo, hi)  # raises unless both are gross-integers and lo <= hi
            offset = values[2] if len(values) == 3 else 0
            if type(offset) is not int:
                offset = _gross_integer(offset, "offset", NonIntegerOffset)
            runs.append((lo, hi, offset))
        else:
            lo, hi = values
            if type(lo) is int and type(hi) is int and lo <= hi:
                parts.append(span(_from_int(lo), _from_int(hi)))
                los.append((0, lo))
                his.append((0, hi))
            else:
                part = GrossInterval(lo, hi)
                parts.append(part)
                los.append(_key(part.lo))
                his.append(_key(part.hi))
    if mu is None:
        raise InvalidMeasurement("missing mu line")
    target = _coalesce(parts, los, his)
    return _proven(mu, _check_runs(mu, runs, target), target)


def serialized_numerals(m: Measurement) -> list[GrossNumber]:
    """Every numeral a writer needs in order to spell the measurement out.

    In order: mu, then each piece's domain endpoints plus its offset when
    the offset is nonzero, then the target's interval endpoints.  Measuring
    a set inside a numeral system means exactly that each of these is
    expressible there.
    """
    return [finite(x) for _, values in _rows(m.mu, m._runs, m.target) for x in values]


def to_text(m: Measurement, ascii_mode: bool = False) -> str:
    """Line-based form: one mu line, then piece lines, then target lines.

    ``piece`` lines carry domain-lo, domain-hi and, when nonzero, the
    offset; ``target`` lines carry one interval each.
    """
    write = _writer(ascii_mode)
    lines = []
    for kind, values in _rows(m.mu, m._runs, m.target):
        if kind == "target":
            lines.append(f"target [{write(values[0])}..{write(values[1])}]")
        else:
            lines.append(" ".join([kind, *map(write, values)]))
    return "\n".join(lines) + "\n"


_FIELD = re.compile(r"\S+")
_TEXT_ARITY = {"mu": (1,), "piece": (2, 3), "target": (1,)}  # fields after the kind
# A whole row of plain integers, each spelt as _INT, with the whitespace the field
# reader splits on; compiled on the first read, so that importing does not pay for it.
_INT_ROW = None


def _text_rows(text: str):
    """The rows of the line-based form, in order.

    A line of at most ``_SHORT_TERM`` characters that is a whole row of plain
    integers is read in one match, its numerals as ints; no number in it is
    past the int-to-string limit.  Every other line is split into fields,
    each read by ``_text_numerals``, with every error and position.
    """
    global _INT_ROW
    if _INT_ROW is None:
        n = f"({_INT})"
        _INT_ROW = re.compile(rf"\s*(?:mu\s+{n}|piece\s+{n}\s+{n}(?:\s+{n})?|target\s+\[{n}\.\.{n}\])\s*")
    int_row = _INT_ROW.fullmatch
    for lineno, line in enumerate(text.splitlines(), start=1):
        # int() reads '+' and '-' but not the Unicode minus sign.
        found = int_row(line.replace("−", "-")) if len(line) <= _SHORT_TERM else None
        if found is not None:
            mu, lo, hi, offset, target_lo, target_hi = found.groups()
            if mu is not None:
                yield "mu", (int(mu),)
            elif lo is None:
                yield "target", (int(target_lo), int(target_hi))
            elif offset is None:
                yield "piece", (int(lo), int(hi))
            else:
                yield "piece", (int(lo), int(hi), int(offset))
            continue
        fields = list(_FIELD.finditer(line))
        if not fields:
            continue
        kind, args = fields[0].group(), fields[1:]
        try:
            if len(args) not in _TEXT_ARITY.get(kind, ()):
                raise ParseError(f"unrecognized line {line.strip()!r}", line, fields[0].start())
            values = []
            for field in args:
                values += _text_numerals(line, field, kind == "target")
            yield kind, tuple(values)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.args[0]}", line, exc.position) from None


def _text_numerals(line: str, field: re.Match, target: bool) -> tuple:
    """The numerals of one field of ``line``: a target's two endpoints, else one numeral.

    A plain integer outside a target is read as an int.  Any other field,
    every target ``[a..b]`` included, is read alone by the scanner, up to
    its own end: a numeral must not run on into the next field, as
    "2①+1 -①-1" would if read as one sum.  Positions are columns of the line.
    ``_text_rows`` reads a row of nothing but plain integers in at most
    ``_SHORT_TERM`` characters whole, without this.
    """
    if not target:
        value = _int_field(field.group())
        if value is not None:
            return (value,)
    scanner = _Scanner(line[: field.end()], field.start())
    values = scanner.parse_interval() if target else (scanner.parse_sum(),)
    scanner.finish()
    return values


def from_text(text: str) -> Measurement:
    """Parse the line-based form; the bijection is checked once, as it is read.

    A ParseError carries the offending line as its text and the column in
    that line as its position.
    """
    _text_arg(text)
    return _from_rows(_text_rows(text))


_JSON_SLOTS = ("lo", "hi", "offset")  # the keys of a piece or target row's numerals


def to_jsonable(m: Measurement, ascii_mode: bool = False) -> dict:
    """JSON-ready dict with every numeral as a string in the numeral grammar."""
    write = _writer(ascii_mode)
    doc: dict = {"mu": None, "pieces": [], "target": []}
    for kind, values in _rows(m.mu, m._runs, m.target):
        if kind == "mu":
            doc["mu"] = write(values[0])
        else:
            entry = dict(zip(_JSON_SLOTS, map(write, values)))
            doc["pieces" if kind == "piece" else kind].append(entry)
    return doc


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _json_member(container: dict, key: str, kind: type, where: str):
    """``container[key]`` checked to be of ``kind``; a ParseError names its JSON path."""
    value = container.get(key)
    if not isinstance(value, kind):
        raise ParseError(f"expected {_JSON_KINDS[kind]}", f"{where}.{key}", 0)
    return value


def _json_numeral(container: dict, key: str, where: str, index: int | None = None) -> int | GrossNumber:
    """The numeral string ``container[key]`` parsed; ``_json_rows`` reads plain integers itself.

    ``where`` is the container's JSON path, followed by ``[index]`` when an
    index is given; that path is built only for an error.
    """
    if index is not None:
        where = f"{where}[{index}]"
    text = _json_member(container, key, str, where)
    try:
        return parse_numeral(text)
    except ParseError as exc:
        raise ParseError(f"{where}.{key}: {exc.args[0]}", text, exc.position) from None


def _json_rows(data):
    """The rows of a JSON document, each plain-integer string read as an int in one try."""
    if not isinstance(data, dict):
        raise ParseError("expected an object", "$", 0)
    text = data.get("mu")
    value = _int_field(text) if isinstance(text, str) else None
    yield "mu", (_json_numeral(data, "mu", "$") if value is None else value,)
    for kind, key in (("piece", "pieces"), ("target", "target")):
        where = f"$.{key}"
        for i, entry in enumerate(_json_member(data, key, list, "$")):
            if not isinstance(entry, dict):
                raise ParseError("expected an object", f"{where}[{i}]", 0)
            values = []
            for slot in _JSON_SLOTS[: 3 if kind == "piece" and "offset" in entry else 2]:
                text = entry.get(slot)
                value = _int_field(text) if isinstance(text, str) else None
                values.append(_json_numeral(entry, slot, where, i) if value is None else value)
            yield kind, tuple(values)


def from_jsonable(data: dict) -> Measurement:
    """Inverse of :func:`to_jsonable`; the bijection is checked once, as it is read.

    A malformed document raises ParseError naming the JSON path at fault,
    such as ``$.pieces[0].hi``; content that is no bijection raises
    InvalidMeasurement.
    """
    return _from_rows(_json_rows(data))


def to_json(m: Measurement, ascii_mode: bool = False) -> str:
    """The JSON text of :func:`to_jsonable`, written from the rows directly.

    It is byte for byte ``json.dumps(to_jsonable(m, ascii_mode), ensure_ascii=False,
    sort_keys=True)``: keys in sorted order, with ``json``'s default
    separators.  No numeral the grammar writes holds a quote, a backslash
    or a control character, the characters JSON escapes, so each string is
    written between quotes as it stands.
    """
    write = _writer(ascii_mode)
    rows = {"piece": [], "target": []}
    for kind, values in _rows(m.mu, m._runs, m.target):
        if kind == "mu":
            mu = write(values[0])
            continue
        entry = f'"hi": "{write(values[1])}", "lo": "{write(values[0])}"'
        if len(values) == 3:
            entry += f', "offset": "{write(values[2])}"'
        rows[kind].append(f"{{{entry}}}")
    return f'{{"mu": "{mu}", "pieces": [{", ".join(rows["piece"])}], "target": [{", ".join(rows["target"])}]}}'


def from_json(text: str) -> Measurement:
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.doc, exc.pos) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", text, 0) from None
    except ValueError:
        # An int literal past the interpreter's int-to-string digit limit.
        raise ParseError("invalid JSON: number has too many digits", text, 0) from None
    return from_jsonable(data)
