"""A measurement holds its runs, and the writers and the gate read them.

Every Measurement holds one ``(lo, hi, offset)`` run per piece in its
private ``_runs`` slot, filled as it is built: by ``_proven`` from the runs
a construction computed or read, with ints for plain integers, and by the
constructor from its pieces.  ``to_text``, ``to_json``, ``to_jsonable`` and
``serialized_numerals`` write the numerals of those runs and of the
target's order keys, and ``measure_in`` gates the runs it computes before
any measurement is built.  Over measurements built by every construction
(gross ends, negative ends, zero offsets, both spellings of ①):

* the held runs equal the pieces' runs, value for value;
* ``to_text`` and ``to_jsonable`` write what the writers that read the
  pieces wrote (``oracles.reference_to_text`` and ``reference_to_jsonable``);
* ``to_json`` is byte for byte ``json.dumps`` of ``to_jsonable``;
* ``measure_in`` admits a set, or refuses it with the same value and
  message, exactly as gating ``serialized_numerals(canonical_measurement(s))``
  numeral by numeral with ``can_express`` does, for the built-in systems and
  for subclasses, which have no plain-integer range.

A plain-integer numeral too long for ``str`` is refused by every writer with
``format_numeral``'s InvalidArgument, wherever it stands.  ``format_numeral``
is the one numeral writer: it writes a plain int by ``str``, with no
GrossNumber built for it.
"""

import copy
import json
import pickle
import sys
from collections import Counter
from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.errors import EmptySet, InvalidArgument, InvalidMeasurement, NotExpressible
from grossone import gnum
from grossone.gnum import GROSSONE, GrossNumber, finite, format_numeral
from grossone.measure import (
    AffinePiece,
    Measurement,
    _run,
    canonical_measurement,
    concat,
    from_json,
    from_jsonable,
    from_text,
    min_extraction_measurement,
    serialized_numerals,
    to_json,
    to_jsonable,
    to_text,
    transport,
)
from grossone.numeral_system import BoundedFinite, GrossBudget, NumeralSystem, Piraha, measure_in
from grossone.sets import EMPTY, difference, interval, make_set, map_affine, parse_set_expression

# Shifts that keep a set finite, move it past ① or below -①, or leave it in place.
shifts = st.one_of(
    st.just(0),
    st.integers(-500, 500),
    st.sampled_from([GROSSONE, -GROSSONE, 2 * GROSSONE - 5, 7 - GROSSONE]),
)


@st.composite
def sets(draw):
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["symbolic", "finite", "negative", "from_one", "tiny"]))
    if kind == "symbolic":
        s = oracles.random_symbolic_set(rng)
    elif kind == "finite":
        s = oracles.random_finite_set(rng, -50, 300)
    elif kind == "negative":
        s = oracles.random_finite_set(rng, -400, -1)
    elif kind == "from_one":
        # Starts at 1, so that the first piece's offset is zero.
        s = oracles.random_finite_set(rng, 1, 60)
        return map_affine(s, 1, 1 - s.parts[0].lo)
    else:
        # Parts inside [1..3], so that the two-numeral system admits some.
        return oracles.random_finite_set(rng, 1, 3, 2)
    return map_affine(s, draw(st.sampled_from([1, -1])), draw(shifts))


def reversed_targets(text: str) -> str:
    rows = text.splitlines()
    targets = [row for row in rows if row.startswith("target")]
    return "\n".join([row for row in rows if not row.startswith("target")] + targets[::-1]) + "\n"


def constructions(s, other, shift, ascii_mode):
    """``(name, measurement)`` for every construction, over the sets ``s`` and ``other``."""
    m = canonical_measurement(s)
    yield "canonical", m
    rest = difference(other, s)
    if not rest.is_empty:
        yield "concat", concat(m, canonical_measurement(rest))
        yield "concat, reversed", concat(canonical_measurement(rest), m)
    moved = transport(m, [AffinePiece(part, shift) for part in m.target.parts])
    yield "transport", moved
    yield "min extraction", min_extraction_measurement(s)
    for name, built in (("canonical", m), ("transport", moved)):
        text = to_text(built, ascii_mode)
        yield f"from_text of {name}", from_text(text)
        yield f"from_text of {name}, targets reversed", from_text(reversed_targets(text))
        yield f"from_json of {name}", from_json(to_json(built, ascii_mode))
        doc = to_jsonable(built, ascii_mode)
        doc["target"].reverse()
        yield f"from_jsonable of {name}, targets reversed", from_jsonable(doc)
        yield f"Measurement of {name}", Measurement(built.mu, built.pieces, built.target)
        yield f"pickle of {name}", pickle.loads(pickle.dumps(built))
        yield f"copy of {name}", copy.copy(built)
        yield f"deepcopy of {name}", copy.deepcopy(built)


def assert_reads_its_runs(m, ascii_mode):
    # An int equals the GrossNumber of the same value.
    assert m._runs == tuple(map(_run, m.pieces))
    assert serialized_numerals(m) == oracles.reference_serialized_numerals(m)
    assert all(type(x) is GrossNumber for x in serialized_numerals(m))
    assert to_text(m, ascii_mode) == oracles.reference_to_text(m, ascii_mode)
    doc = to_jsonable(m, ascii_mode)
    assert doc == oracles.reference_to_jsonable(m, ascii_mode)
    assert to_json(m, ascii_mode) == json.dumps(doc, ensure_ascii=False, sort_keys=True)


@seed(36036)
@given(sets(), sets(), shifts, st.booleans())
def test_every_construction_holds_its_runs_and_writes_them_as_the_pieces_read(s, other, shift, ascii_mode):
    for name, m in constructions(s, other, shift, ascii_mode):
        assert type(m) is Measurement, name
        assert_reads_its_runs(m, ascii_mode)


def test_fixed_measurements_write_as_the_pieces_read():
    for expression in ("[1..3]", "[-①..①]", "[-40..-30]|[5..9]|[200..2①+3]", "[①..①+5]", "[-7..-7]|[1..①^2]"):
        m = canonical_measurement(parse_set_expression(expression))
        for ascii_mode in (False, True):
            assert_reads_its_runs(m, ascii_mode)
            assert_reads_its_runs(from_text(to_text(m, ascii_mode)), ascii_mode)


def test_canonical_runs_hold_ints_for_plain_ends():
    m = canonical_measurement(parse_set_expression("[-40..-30]|[5..9]|[200..2①+3]"))
    assert [[type(x).__name__ for x in run] for run in m._runs] == [
        ["int", "int", "int"],
        ["int", "int", "int"],
        ["int", "GrossNumber", "int"],
    ]
    assert m._runs[:2] == ((1, 11, -41), (12, 16, -7))


def test_the_constructor_checks_each_run_before_it_makes_the_next():
    # The runs it holds are made one by one as the check reads them, so a
    # piece that is no AffinePiece is refused only once the check reaches it.
    with pytest.raises(InvalidMeasurement, match="^mu must be a positive gross-integer, got 0$"):
        Measurement(0, ["x"], EMPTY)
    with pytest.raises(InvalidMeasurement, match="^piece domains must be contiguous from 1: expected lo 1, got 2$"):
        Measurement(5, [AffinePiece(interval(2, 3), 0), "x"], EMPTY)
    with pytest.raises(TypeError, match="^pieces must be AffinePiece values$"):
        Measurement(5, [AffinePiece(interval(1, 3), 0), "x"], EMPTY)


# ---------------------------------------------------------------- the gate


class Sparse(NumeralSystem):
    """A system of its own, with no plain-integer range: no coefficient may be a multiple of 7.

    It records each value it is asked about, so that a test can see that
    every one is a GrossNumber.
    """

    __slots__ = ("asked",)

    def __init__(self):
        self.asked = []

    def describe(self) -> str:
        return "sparse"

    def can_express(self, x) -> bool:
        self.asked.append(x)
        return all(coefficient % 7 for _, coefficient in x.terms)


class Labelled(BoundedFinite):
    """A built-in kind's subclass: its ``can_express`` is the base's, but it has no plain-integer range."""

    label: str = ""


systems = st.one_of(
    st.just(Piraha()),
    st.builds(BoundedFinite, st.integers(1, 4), st.integers(2, 16)),
    st.builds(GrossBudget, st.integers(1, 3), st.integers(1, 4), st.integers(1, 2)),
    st.builds(Labelled, st.integers(1, 3), st.integers(2, 16)),
    st.builds(Sparse),
)


def gated(system, s):
    """The canonical measurement of ``s``, its numerals gated in order after it is built."""
    m = canonical_measurement(s)
    for value in serialized_numerals(m):
        if not system.can_express(value):
            raise NotExpressible(value, system.describe())
    return m


def gate_outcome(call, system, s):
    try:
        m = call(system, s)
    except NotExpressible as exc:
        value = exc.value
        return "refused", type(value), repr(value.terms), str(exc), exc.system_name
    return "admitted", m


@seed(36037)
@given(systems, sets())
def test_measure_in_gates_as_the_built_measurement_is_gated(system, s):
    got = gate_outcome(measure_in, system, s)
    # What measure_in asked a system of its own: every int boxed first.
    asked = list(getattr(system, "asked", ()))
    assert got == gate_outcome(gated, system, s)
    assert all(type(x) is GrossNumber for x in asked)


@pytest.mark.parametrize(
    "system, parts, value",
    [
        (Piraha(), [(1, 3)], 3),
        (BoundedFinite(2, 10), [(1, 5), (200, 201)], 194),
        (GrossBudget(1, 3, 1), [(1, 5), (9, GROSSONE - 1)], GROSSONE - 4),
        (Labelled(1, 10), [(-40, -38), (5, 6)], -41),
        (Sparse(), [(1, 3), (18, 20)], 14),
    ],
)
def test_a_refusal_names_the_first_unwritable_numeral(system, parts, value):
    s = make_set(interval(lo, hi) for lo, hi in parts)
    with pytest.raises(NotExpressible) as info:
        measure_in(system, s)
    assert type(info.value.value) is GrossNumber and info.value.value == value
    assert gate_outcome(measure_in, system, s) == gate_outcome(gated, system, s)


def test_the_empty_set_is_refused_before_any_numeral_is_gated():
    system = Sparse()
    with pytest.raises(EmptySet, match="^the empty set has no measurement$"):
        measure_in(system, EMPTY)
    assert system.asked == []


# ---------------------------------------------------------------- numerals too long to write


def too_long_measurements():
    """``{where: (measurement, index)}``: the first numeral past the int-to-string limit is in mu,
    a piece end, an offset or a target end, at ``index`` in the rows' order."""
    digits = sys.get_int_max_str_digits()
    big = 10**digits  # digits + 1 digits
    half = 5 * 10 ** (digits - 1)  # digits digits, writable; twice it is not
    whole = make_set([interval(1, GROSSONE)])
    return {
        "mu": (canonical_measurement(make_set([interval(1, big)])), 0),
        "piece end": (Measurement(
            GROSSONE,
            (AffinePiece(interval(1, big), 0), AffinePiece(interval(big + 1, GROSSONE), 0)),
            whole,
        ), 2),
        "offset": (Measurement(
            GROSSONE,
            (AffinePiece(interval(1, GROSSONE), big),),
            make_set([interval(big + 1, GROSSONE + big)]),
        ), 3),
        "target end": (Measurement(
            GROSSONE,
            (AffinePiece(interval(1, half), 0), AffinePiece(interval(half + 1, GROSSONE), half)),
            make_set([interval(1, half), interval(2 * half + 1, GROSSONE + half)]),
        ), 8),
    }


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="the int-to-string limit is off")
@pytest.mark.parametrize("where", ["mu", "piece end", "offset", "target end"])
@pytest.mark.parametrize("write", [to_text, to_json, to_jsonable], ids=lambda f: f.__name__)
def test_a_plain_integer_too_long_to_write_is_refused_by_every_writer(write, where):
    m, _ = too_long_measurements()[where]
    for ascii_mode in (False, True):
        with pytest.raises(InvalidArgument, match="^numeral has too many digits to write out$"):
            write(m, ascii_mode)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="the int-to-string limit is off")
def test_a_plain_int_too_long_to_write_is_refused_by_format_numeral():
    big = 10 ** sys.get_int_max_str_digits()
    for n in (big, -big):
        for ascii_mode in (False, True):
            with pytest.raises(InvalidArgument, match="^numeral has too many digits to write out$"):
                format_numeral(n, ascii_mode)


@pytest.fixture
def boxings():
    """Calls of ``gnum._from_int`` and ``gnum.finite``, by name, however they are reached.

    Counted by code object from the interpreter's profile hook, as the
    one-walk tests of ``measure_in`` count their calls.
    """
    watched = {gnum._from_int.__code__: "_from_int", gnum.finite.__code__: "finite"}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            counts[watched[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


@pytest.mark.parametrize("n", [0, 7, -7, 1023, 1024, -(10**20)])
def test_a_plain_int_is_written_without_boxing(boxings, n):
    written = [format_numeral(n), format_numeral(n, ascii_mode=True)]
    assert boxings == Counter()
    assert written == [str(n), str(n)]
    assert format_numeral(finite(n)) == str(n)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="the int-to-string limit is off")
def test_the_first_numeral_past_the_limit_is_where_it_is_named():
    for where, (m, index) in too_long_measurements().items():
        writable = []
        for x in oracles.reference_serialized_numerals(m):
            try:
                oracles.reference_format_numeral(x)
                writable.append(True)
            except InvalidArgument:
                writable.append(False)
        assert writable.index(False) == index, where
