"""The CLI in-process on seeded argv: every call ends in an exit code, never an exception.

The argv are built from the seven verbs, well-formed and junk numerals,
set expressions, system descriptors and definitions, with ``--format``
and ``--ascii`` in any combination.  Each call must return 0, 1 or 2.  A
call that asked for JSON and got through argument parsing writes exactly
one envelope that the shipped schema accepts, ``result`` on exit 0 and
``error`` otherwise; any other failing call writes its error or argparse's
usage to stderr alone.
"""

import contextlib
import io
import json
from importlib import resources

import jsonschema
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from grossone.cli import main

with resources.files("grossone.schemas").joinpath("envelope.json").open() as fh:
    ENVELOPE_SCHEMA = json.load(fh)

NUMERALS = [
    "0", "3", "-7", "1/2", "-3/4", "2.5", "①", "G1", "2*G1+1", "①^2-3①+1/2", "①^(1/2)",
    "①^-1", "-①+1", "5①^(-2/3)", "1e5", "", " ", "①^", "1/0", "1/", "2**①", "x", "[1..3]",
    "①①", "1..2", "−①", "(1)", "9" * 40, "0.000001", "G1^G1",
]
SETS = [
    "[1..①]", "[-①..①]", "{1,2,3}", "{}", "[1..3]|[10..①]", "[1..①]\\{1}", "iota([1..①], 3)",
    "[1..①^(1/2)]", "[1..①]&[5..2①]", "[2..1]", "[1..3/2]", "[1..", "{1,", "frob(2)", "[①..1]",
    "iota([1..3])", "[1..①]\\[1..①]", "(", "[1..3] [4..5]", "[-①^2..①^2]|{0}",
]
DESCRIPTORS = [
    "piraha", "finite:3:10", "finite:1:2", "gross:2:3:1", "gross:1:1:1", "finite:0:10",
    "finite:x:10", "gross:1:1", "", "finite:99999:10", "gross:0:1:1", "finite:3:1", "PIRAHA",
]
DEFINITIONS = [
    "sqrtfloor(100)", "sqrtfloor(①)", "logfloor(2, ①)", "logfloor(10, 999)", "invfloor(pow 3, 27)",
    "invfloor(pow 1000000000, ①)", "sqrtfloor(", "invfloor(pow 1, 5)", "logfloor(1, 5)",
    "sqrtfloor(3/2)", "sqrtfloor(0)", "frob(2)", "",
]
JUNK = st.text(alphabet="0123456789①G^()[]{}.,|&\\/*+-− abciotx", max_size=12)


def pick(pool):
    # Mostly a listed string, sometimes junk from the grammar's alphabet.
    return st.one_of(st.sampled_from(pool), st.sampled_from(pool), st.sampled_from(pool), JUNK)


numeral = pick(NUMERALS)
rational = pick(["0", "1", "2", "1/2", "-3", "5/2", "①", "x"])

# One branch per call shape, drawn first so that no shape crowds out the rest.
verb_args = st.sampled_from(
    [
        st.tuples(st.just("eval"), numeral),
        st.tuples(st.just("card"), pick(SETS)),
        st.tuples(st.just("cmp"), numeral, numeral),
        st.tuples(st.just("measure"), pick(SETS)),
        st.tuples(st.just("measure"), pick(SETS), st.just("--system"), pick(DESCRIPTORS)),
        st.tuples(
            st.just("system"),
            pick(DESCRIPTORS),
            st.sampled_from(["max-finite", "min-infinite", "expressible", "nonsense"]),
        ),
        st.tuples(st.just("system"), pick(DESCRIPTORS), st.just("expressible"), numeral),
        st.tuples(st.just("define"), pick(DEFINITIONS)),
        st.tuples(st.just("define"), pick(DEFINITIONS), st.just("--cmp"), numeral),
        st.tuples(st.just("demo"), st.just("halfplane"), st.just("--a"), rational, st.just("--d"), rational),
        st.tuples(
            st.just("demo"), st.just("halfplane"), st.just("--a"), rational, st.just("--d"), rational,
            st.just("--b"), numeral, st.just("--c"), numeral,
        ),
        st.lists(st.one_of(st.sampled_from(["eval", "card", "frob", "--ascii", "-x"]), JUNK), max_size=4),
    ]
).flatmap(lambda shape: shape.map(list))

formats = st.sampled_from(
    [[], ["--format", "json"], ["--format", "json"], ["--format", "text"], ["--format", "xml"]]
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@seed(15003)
@settings(max_examples=400)
@given(verb_args, formats, st.booleans())
def test_every_call_ends_in_an_exit_code_and_a_valid_envelope(words, fmt, ascii_mode):
    argv = words + fmt + (["--ascii"] if ascii_mode else [])
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0 and ascii_mode:
        assert "①" not in out, (argv, out)
    if fmt == ["--format", "json"] and out:
        payload = json.loads(out)
        jsonschema.validate(payload, ENVELOPE_SCHEMA)
        assert ("result" in payload) == (code == 0), (argv, payload)
        assert out.count("\n") == 1 and err == "", (argv, out, err)
    elif code == 0:
        assert err == "" and out.endswith("\n"), (argv, out, err)
    else:
        # An error line, or argparse's usage when parsing refused the call.
        assert out == "" and err.startswith(("error: ", "usage: ")), (argv, code, out, err)


def test_the_checks_see_every_exit_code_in_both_formats():
    seen = set()
    for argv in (
        ["eval", "2*G1+1"], ["eval", "①^"], ["system", "finite:0:10", "max-finite"],
        ["measure", "[1..5]", "--system", "piraha"], ["frob"],
    ):
        for fmt in ([], ["--format", "json"]):
            code, out, err = run(argv + fmt)
            seen.add((code, bool(fmt)))
    assert seen == {(c, j) for c in (0, 1, 2) for j in (False, True)}
