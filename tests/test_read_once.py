"""The measurement readers read plain integers as ints and check the bijection once.

``from_text`` and ``from_jsonable`` read a field that is a plain integer as
an int, check each row as it comes, check the whole invariant once with
``measure._check_runs`` (the check ``Measurement``'s validator runs) and
build through ``measure._proven``.  The reference in ``tests/oracles.py``
reads every numeral with the scanner and builds a validated piece per row.
On seeded measurements (finite, with a ① tail, with wide numerals, and
with pieces out of image order) and on mutations of their rows, both
readers must give the same measurement, entry types included, or the same
error type and message, and for a ParseError the same text and position.
"""

import json
import re
from random import Random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import oracles
from grossone.errors import GrossoneError, InvalidMeasurement, ParseError
from grossone.gnum import (
    _SHORT_TERM,
    GROSSONE,
    GrossNumber,
    _from_int,
    _int_field,
    _key,
    format_numeral,
    parse_numeral,
)
from grossone.measure import (
    AffinePiece,
    Measurement,
    _rows,
    _text_rows,
    canonical_measurement,
    from_json,
    from_jsonable,
    from_text,
    transport,
)
from grossone.sets import interval, make_set, parse_set_expression
from test_one_build_path import SOURCE, functions_calling

SLOTS = ("lo", "hi", "offset")

# Fields that replace one numeral: not gross-integers, plain integers in
# every spelling the one-match read takes, and digit runs on both sides of
# the one-match length limit and past the int-to-string limit.
LITERALS = [
    "1/2", "①-3", "+5", "−5", "-5", "007", "-0", "+0", "0", "1.5", "2①", "①", "G1-1", "5x", "",
    "9" * _SHORT_TERM, "9" * (_SHORT_TERM + 1), "-" + "9" * (_SHORT_TERM - 1), "-" + "9" * _SHORT_TERM,
    "9" * 4301,
]
# Whole target fields of the line-based form, bracketed or not, with ends
# that are plain integers or not.
TARGET_FIELDS = [
    "[1..2]", "[007..+9]", "[−3..-0]", "1..2]", "[1..2", "x1..2]", "[1..2)", "[1...2]", "[1.2]",
    "[1..2..3]", "[..2]", "[1..]", "[]", "[", "]", "[1.5..2]", "[1..①]", "[-①..-①+1]", "[1..2]]",
    f"[1..{'9' * _SHORT_TERM}]", f"[{'0' * (_SHORT_TERM - 1)}1..{'9' * (_SHORT_TERM + 1)}]",
]


def outcome(read, arg):
    """What a reader makes of ``arg``: the measurement's repr, or the error it raises."""
    try:
        m = read(arg)
    except GrossoneError as exc:
        if isinstance(exc, ParseError):
            return type(exc), exc.args[0], exc.text, exc.position
        return type(exc), str(exc)
    # repr tells an int entry from a GrossNumber; every entry must be a GrossNumber.
    for piece in m.pieces:
        assert type(piece.offset) is GrossNumber
        assert type(piece.domain.lo) is GrossNumber and type(piece.domain.hi) is GrossNumber
    assert type(m.mu) is GrossNumber
    return repr(m)


# ---------------------------------------------------------------- rows as written


def written_rows(m) -> list[list]:
    """The rows of ``m`` as ``[kind, numeral strings]``, as every form spells them out."""
    return [[kind, [format_numeral(x) for x in values]] for kind, values in _rows(m.mu, m._runs, m.target)]


def as_text(rows, rng: Random | None = None) -> str:
    """The line-based form of ``rows``; with ``rng``, padded with random whitespace."""

    def gap():
        return "".join(rng.choice(" \t") for _ in range(rng.randint(1, 3))) if rng else " "

    lines = []
    for kind, fields in rows:
        if kind == "target" and len(fields) == 2:
            fields = [f"[{fields[0]}..{fields[1]}]"]
        line = gap().join([kind, *fields])
        lines.append(gap() + line + gap() if rng else line)
        if rng and rng.random() < 0.2:
            lines.append(gap())
    return "\n".join(lines) + "\n"


def as_jsonable(rows, rng: Random | None = None) -> dict:
    """The JSON-ready form of ``rows``; the last mu row gives mu, and none leaves it out."""

    def pad(field):
        return f"{' ' * rng.randint(0, 2)}{field}{' ' * rng.randint(0, 2)}" if rng else field

    doc: dict = {"pieces": [], "target": []}
    for kind, fields in rows:
        if kind == "mu":
            doc["mu"] = pad(fields[0])
        else:
            doc["pieces" if kind == "piece" else "target"].append(dict(zip(SLOTS, map(pad, fields))))
    return doc


def assert_same(rows, rng: Random | None = None):
    text = as_text(rows, rng)
    assert outcome(from_text, text) == outcome(oracles.reference_from_text, text), text
    doc = as_jsonable(rows, rng)
    assert outcome(from_jsonable, doc) == outcome(oracles.reference_from_jsonable, doc), doc


# ---------------------------------------------------------------- measurements


def wide_set(rng: Random):
    """Parts at numerals of up to about 700 digits, some of them infinite."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        base = rng.choice([-1, 1]) * 10 ** rng.randint(1, 700) + rng.randint(-9, 9)
        if rng.random() < 0.3:
            base = base * GROSSONE + rng.randint(-3, 3)
        parts.append(interval(base, base + rng.randint(0, 5)))
    return make_set(parts)


def random_measurement(rng: Random):
    kind = rng.choice(["finite", "tail", "wide"])
    if kind == "finite":
        s = oracles.random_finite_set(rng, -60, 400, 6)
    elif kind == "tail":
        s = oracles.random_symbolic_set(rng)
    else:
        s = wide_set(rng)
    m = canonical_measurement(s)
    if rng.random() < 0.4:
        # Move the parts to fresh places in a shuffled order, so the pieces'
        # images no longer come in the order of their domains.
        parts = list(s.parts)
        rng.shuffle(parts)
        place, bijection = rng.randint(-30, 30), []
        for part in parts:
            offset = place - part.lo
            bijection.append(AffinePiece(part, offset))
            place = part.hi + offset + rng.randint(2, 9)
        m = transport(m, bijection)
    return m


def mutated(rows: list[list], rng: Random) -> list[list]:
    """``rows`` with one random fault or respelling."""
    rows = [[kind, list(fields)] for kind, fields in rows]
    if not rows:
        return rows
    how = rng.choice([
        "shift", "drop", "swap", "duplicate", "literal", "offset", "zeros", "bracket",
        "split", "reverse", "repeat", "overlap",
    ])
    i = rng.randrange(len(rows))
    kind, fields = rows[i]
    if how == "shift":
        j = rng.randrange(len(fields))
        try:
            fields[j] = format_numeral(parse_numeral(fields[j]) + rng.choice([-1, 1]))
        except GrossoneError:
            pass  # an earlier mutation left no one numeral here, such as a bracketed target
    elif how == "drop":
        del rows[i]
    elif how == "swap":
        k = rng.randrange(len(rows))
        rows[i], rows[k] = rows[k], rows[i]
    elif how == "duplicate":
        pieces = [row for row in rows if row[0] == "piece"]
        if pieces:
            rows.insert(rng.randrange(len(rows) + 1), ["piece", list(rng.choice(pieces)[1])])
    elif how == "literal":
        fields[rng.randrange(len(fields))] = rng.choice(LITERALS)
    elif how == "offset":
        # An explicit zero offset, however spelt, on a piece that has none.
        pieces = [row for row in rows if row[0] == "piece" and len(row[1]) == 2]
        if pieces:
            rng.choice(pieces)[1].append(rng.choice(["0", "-0", "+0", "000", "−0"]))
    elif how in ("split", "overlap"):
        # A target row [a..b] written as [a..k] and [k+1..b], or as [a..k2] and [k..b] for k <= k2.
        targets = [j for j, row in enumerate(rows) if row[0] == "target" and len(row[1]) == 2]
        if targets:
            j = rng.choice(targets)
            a, b = rows[j][1]
            try:
                lo, hi = parse_numeral(a), parse_numeral(b)
            except GrossoneError:
                pass  # an earlier mutation left no one numeral here
            else:
                k = lo + rng.randint(0, 3)
                k2 = k + 1 if how == "split" else k + rng.randint(0, 2)
                if k2 <= hi:
                    first, second = (k, k2) if how == "split" else (k2, k)
                    rows[j : j + 1] = [
                        ["target", [a, format_numeral(first)]],
                        ["target", [format_numeral(second), b]],
                    ]
    elif how == "reverse":
        targets = [j for j, row in enumerate(rows) if row[0] == "target"]
        for j, row in zip(targets, [rows[j] for j in reversed(targets)]):
            rows[j] = row
    elif how == "repeat":
        targets = [row for row in rows if row[0] == "target"]
        if targets:
            rows.insert(rng.randrange(len(rows) + 1), ["target", list(rng.choice(targets)[1])])
    elif how == "bracket":
        # A target row spelt as one whole field, written out as it stands.
        targets = [row for row in rows if row[0] == "target"]
        if targets:
            rng.choice(targets)[1][:] = [rng.choice(TARGET_FIELDS)]
    else:
        # The same value spelt with leading zeros, up to or past the one-match length limit.
        j = rng.randrange(len(fields))
        sign, digits = ("-", fields[j][1:]) if fields[j].startswith("-") else ("", fields[j])
        if digits.isdigit():
            width = rng.choice([_SHORT_TERM, _SHORT_TERM + 1]) - len(sign)
            fields[j] = sign + digits.zfill(width)
    return rows


@seed(20261019)
@given(st.integers(0, 2**32 - 1))
def test_the_readers_agree_with_the_reference(n):
    rng = Random(n)
    rows = written_rows(random_measurement(rng))
    assert_same(rows)
    assert_same(rows, rng)
    for _ in range(6):
        variant = mutated(rows, rng)
        assert_same(variant)
        if rng.random() < 0.3:
            assert_same(mutated(variant, rng), rng)


def test_every_literal_in_every_slot():
    m = canonical_measurement(make_set([interval(-4, 2), interval(7, 9), interval(20, GROSSONE - 3)]))
    rows = written_rows(m)
    for i, (_, fields) in enumerate(rows):
        for j in range(len(fields) + (1 if rows[i][0] == "piece" and len(fields) == 2 else 0)):
            for literal in LITERALS:
                variant = [[kind, list(f)] for kind, f in rows]
                if j < len(fields):
                    variant[i][1][j] = literal
                else:
                    variant[i][1].append(literal)
                assert_same(variant)


def test_every_spelling_of_a_target_field():
    rows = [["mu", ["2"]], ["piece", ["1", "2", "0"]], ["target", None]]
    for field in TARGET_FIELDS:
        rows[-1][1] = [field]
        text = as_text(rows)
        assert outcome(from_text, text) == outcome(oracles.reference_from_text, text), text


def test_json_text_goes_through_the_same_reader():
    m = canonical_measurement(make_set([interval(1, 3), interval(10, GROSSONE)]))
    doc = as_jsonable(written_rows(m))
    doc["pieces"][1]["offset"] = "00" + doc["pieces"][1]["offset"]
    text = json.dumps(doc)
    assert from_json(text) == oracles.reference_from_jsonable(doc)
    doc["target"][0]["hi"] = "−0"
    assert outcome(from_json, json.dumps(doc)) == outcome(oracles.reference_from_jsonable, doc)


# ---------------------------------------------------------------- target rows and the cover check
#
# The readers key each target row as they read it and make the target
# canonical from those keys, so target rows out of order, split, repeated or
# overlapping read as their union; ``_check_runs`` compares the pieces'
# joined images with the target's keys.


def with_targets(rows: list[list], targets: list[list[str]]) -> list[list]:
    """``rows`` with their target rows replaced by ``targets``, each ``[lo, hi]``."""
    return [row for row in rows if row[0] != "target"] + [["target", list(t)] for t in targets]


def test_target_rows_swapped_or_split_read_as_the_original():
    m = canonical_measurement(make_set([interval(1, 3), interval(7, 9), interval(20, GROSSONE - 3)]))
    rows = written_rows(m)
    swapped = with_targets(rows, [["7", "9"], ["1", "3"], ["20", "①-3"]])
    split = with_targets(rows, [["1", "2"], ["3", "3"], ["7", "9"], ["20", "①-3"]])
    for variant in (swapped, split):
        assert from_text(as_text(variant)) == m
        assert from_jsonable(as_jsonable(variant)) == m
        assert_same(variant)


# (measured set, target that the same pieces do not cover exactly)
OFF_TARGETS = [
    ("[1..3]|[7..9]", "[1..3]|[7..10]"),  # one end off by one at a plain end
    ("[1..3]|[7..9]", "[0..3]|[7..9]"),
    ("[1..①]", "[1..①-1]"),  # one end off by one at a ① end
    ("[5..①]", "[4..①]"),
    ("[1..3]|[7..9]", "[1..3]|[7..9]|[20..21]"),  # an extra part
    ("[1..3]|[7..9]|[20..①]", "[1..3]|[20..①]"),  # a missing part
]


def test_the_constructor_and_the_readers_refuse_a_target_the_pieces_do_not_cover():
    message = "piece images must cover exactly the target"
    for measured, target in OFF_TARGETS:
        m = canonical_measurement(parse_set_expression(measured))
        wrong = parse_set_expression(target)
        with pytest.raises(InvalidMeasurement, match=f"^{message}$"):
            Measurement(mu=m.mu, pieces=m.pieces, target=wrong)
        rows = with_targets(written_rows(m), [[format_numeral(p.lo), format_numeral(p.hi)] for p in wrong.parts])
        for read, arg in ((from_text, as_text(rows)), (from_jsonable, as_jsonable(rows))):
            with pytest.raises(InvalidMeasurement, match=f"^{message}$"):
                read(arg)
        assert_same(rows)


@seed(20261021)
@given(st.one_of(st.just(0), st.integers(max_value=-1), st.integers(min_value=10**_SHORT_TERM)))
def test_the_readers_int_key_is_the_order_key_of_the_boxed_int(n):
    # Zero, negative ints, and ints longer than the one-match length limit.
    assert (0, n) == _key(_from_int(n))


# ---------------------------------------------------------------- whole rows of plain integers
#
# ``from_text`` reads a line that is a whole row of plain integers in one
# match and sends every other line to the field reader.  Each edge line
# stands in for its kind's first row of a measurement, and is also added
# after the rows; the outcome must be the reference's either way.

# [1..2] | [10..12] | [20..21], with an explicit zero offset.
PLAIN_ROWS = [
    "mu 7", "piece 1 2 0", "piece 3 5 7", "piece 6 7 14", "target [1..2]", "target [10..12]", "target [20..21]",
]
# [-12..-10] | [5..①]: negative plain integers, and rows that mix them with ①.
MIXED_ROWS = ["mu ①-1", "piece 1 3 -13", "piece 4 ①-1 1", "target [-12..-10]", "target [5..①]"]
SPACES = [" ", "\t", "\u00a0", "\u3000", " \t", "\u3000\u00a0 "]


def texts_with(line: str, rows: list[str]) -> list[str]:
    """``line`` in place of the first row of its kind among ``rows``, and after them."""
    kind = (line.split() or [""])[0]
    first = next((i for i, row in enumerate(rows) if row.split()[0] == kind), 0)
    replaced = [*rows[:first], line, *rows[first + 1 :]]
    return ["\n".join(replaced) + "\n", "\n".join([*rows, line]) + "\n"]


def assert_same_text(line: str, rows: list[str] = PLAIN_ROWS):
    for text in texts_with(line, rows):
        assert outcome(from_text, text) == outcome(oracles.reference_from_text, text), text


def spellings(value: int) -> list[str]:
    """``value`` with and without a sign and leading zeros: every spelling of a plain integer."""
    digits = str(abs(value))
    signs = ["-", "−"] if value < 0 else ["", "+", *(["-", "−"] if value == 0 else [])]
    return [sign + zeros + digits for sign in signs for zeros in ("", "00")]


def row_fields(row: str) -> tuple[str, list[str]]:
    kind, *fields = row.split()
    if kind == "target":
        fields = fields[0][1:-1].split("..")
    return kind, fields


def test_every_whitespace_between_and_around_the_fields():
    for rows in (PLAIN_ROWS, MIXED_ROWS):
        for row in rows:
            kind, fields = row_fields(row)
            if kind == "target":
                fields = [f"[{fields[0]}..{fields[1]}]"]
            for gap in SPACES:
                for edge in ("", *SPACES):
                    assert_same_text(edge + gap.join([kind, *fields]) + edge, rows)
            # Whitespace inside a target's brackets splits its field.
            if kind == "target":
                assert_same_text(f"target [{fields[0][1:-1].replace('..', ' ..')}]", rows)


def test_every_spelling_of_every_plain_integer():
    for rows in (PLAIN_ROWS, MIXED_ROWS):
        written = [[kind, fields] for kind, fields in map(row_fields, rows)]
        for i, (kind, fields) in enumerate(written):
            for j, field in enumerate(fields):
                if not _PLAIN_INT.fullmatch(field):
                    continue
                for spelling in spellings(int(field)):
                    variant = [[k, list(f)] for k, f in written]
                    variant[i][1][j] = spelling
                    assert_same(variant)


def test_lines_at_the_one_match_length_limit():
    for row, rows in [*((row, PLAIN_ROWS) for row in PLAIN_ROWS), (MIXED_ROWS[1], MIXED_ROWS)]:
        for length in (_SHORT_TERM, _SHORT_TERM + 1):
            padded = row + " " * (length - len(row))
            kind, fields = row_fields(row)
            zeros = "0" * (length - len(row))
            field = fields[-1]
            fields[-1] = field[0] + zeros + field[1:] if field[0] in "+-−" else zeros + field
            zero_padded = " ".join([kind, *([f"[{fields[0]}..{fields[1]}]"] if kind == "target" else fields)])
            for line in (padded, zero_padded):
                assert len(line) == length
                assert_same_text(line, rows)


def test_rows_of_the_wrong_shape():
    lines = [
        "piece 1", "piece 1 2 3 4", "mu 1 2", "mu", "target", "target [1..2] [3..4]", "target 1 2",
        "mu3", "piece1 2", "target[1..2]", "piece 1 2-3", "piece 1-2", "piece 12", "piece 1+2 3", "piece 1 2+3",
        "piece 1 2 3-4", "target [1..2]]", "target [[1..2]", "target [1...2]", "target [1..2..3]", "target [1.. 2]",
        "mu 3 ", " mu 3", "MU 3", "piece 1 2 +", "mu −", "mu +-3", "mu 1_000", "mu ٣", "target [1..2", "target 1..2]",
        "pieces 1 2",
    ]
    for line in lines:
        assert_same_text(line)


def test_lines_that_mix_plain_integers_with_gross_numerals():
    lines = [
        "mu ①", "mu ①-1", "piece 1 ①", "piece ① ①+2 5", "piece 4 ①-1 1", "piece 1 3 ①", "piece 1 3 G1",
        "target [5..①]", "target [①..9]", "target [-12..-①]", "target [5..①]]", "piece 1 2①", "piece 1 2 3①",
        "piece 1 ①-1 −0", "piece 004 ①-1 +1", "target [+5..①]", "mu 1/2", "piece 1 2.5", "target [1..2/1]",
    ]
    for line in lines:
        assert_same_text(line, MIXED_ROWS)
        assert_same_text(line)


def typed_rows(text: str) -> list:
    return [(kind, [(type(value), value) for value in values]) for kind, values in _text_rows(text)]


def test_the_base_rows_read_as_measurements():
    for rows in (PLAIN_ROWS, MIXED_ROWS):
        text = "\n".join(rows)
        assert from_text(text) == oracles.reference_from_text(text)


def test_plain_integers_are_read_as_ints_on_either_side_of_the_length_limit():
    at_limit = "mu " + "7".zfill(_SHORT_TERM - 3)
    assert typed_rows(at_limit) == [("mu", [(int, 7)])]
    # One character longer, the same row goes to the field reader, which reads each plain field as an int.
    assert typed_rows(at_limit + " ") == [("mu", [(int, 7)])]
    assert typed_rows("\u3000piece\t+1 −0 007\u00a0\ntarget [-3..−0]\n") == [
        ("piece", [(int, 1), (int, 0), (int, 7)]),
        ("target", [(int, -3), (int, 0)]),
    ]
    assert typed_rows("piece 1 ①") == [("piece", [(int, 1), (GrossNumber, GROSSONE)])]
    # The field reader reads a target's ends by the scanner, plain or not.
    assert typed_rows("target [-3..①]\ntarget [1..2]" + " " * _SHORT_TERM) == [
        ("target", [(GrossNumber, -3), (GrossNumber, GROSSONE)]),
        ("target", [(GrossNumber, 1), (GrossNumber, 2)]),
    ]


# ---------------------------------------------------------------- the plain-integer read


# A whole numeral that is a plain integer: no '/', digit or decimal part
# follows it, and no '*', sign or base after any whitespace.  Spelt here
# from the numeral grammar, apart from the library's own patterns.
_PLAIN_INT = re.compile(r"[+\-−]?[0-9]+(?![/0-9]|\.[0-9])(?!\s*(?:[*+\-−]|①|G1))")

FIELD_TEXTS = [
    "0", "-0", "+0", "−0", "007", "+5", "−5", "5 ", " 5", "5\n", "1_000", "٣", "5.", "5.0", "5/1",
    "5①", "5G1", "5*", "--5", "+-5", "", "-", "①",
    *("9" * n for n in (_SHORT_TERM - 1, _SHORT_TERM, _SHORT_TERM + 1)),
    *(s + "8" * n for s in "+-−" for n in (_SHORT_TERM - 1, _SHORT_TERM)),
]


def plain_int_read(text: str) -> int | None:
    """What ``parse_numeral`` reads from the whole of ``text`` where it is one short plain integer, else None."""
    found = _PLAIN_INT.match(text)
    if found is None or found.end() != len(text) or len(text) > _SHORT_TERM:
        return None
    return parse_numeral(text).as_int()


def check_int_field(text: str):
    value = _int_field(text)
    assert value == plain_int_read(text), text
    assert value is None or type(value) is int


def test_the_plain_integer_read_follows_the_one_match_grammar():
    for text in FIELD_TEXTS:
        check_int_field(text)


@seed(20261020)
@given(st.text(alphabet="0123456789+-−./*①G1 _", max_size=12))
def test_the_plain_integer_read_on_random_fields(text):
    check_int_field(text)


# ---------------------------------------------------------------- one check, one build


def test_the_validator_and_the_readers_share_one_check():
    def callers(name):
        return functions_calling(SOURCE / "measure.py", name)

    assert callers("_check_runs") == {"Measurement", "__post_init__", "_from_rows"}
    assert "_from_rows" in callers("_proven")
    assert "_from_rows" not in callers("AffinePiece") | callers("Measurement")
