"""The CLI's one output boundary: --format and --ascii apply to whole results.

A verb's --ascii output is its plain output with ① written as G1, in text
and JSON mode alike; error output ignores --ascii; every JSON document
matches the shipped envelope schema; demo's text lines are its JSON
result's entries, in order.
"""

import contextlib
import io
import json
from importlib import resources

import jsonschema
import pytest

from grossone.cli import main

with resources.files("grossone.schemas").joinpath("envelope.json").open() as fh:
    ENVELOPE_SCHEMA = json.load(fh)

# Every verb, with values that carry ① and values that do not.
VALID = [
    ("eval", "2*G1+1"),
    ("eval", "①^2-3①+1/2"),
    ("eval", "--", "-7/3"),
    ("card", "[-①..①]"),
    ("card", "iota([1..①], 3)"),
    ("card", "hull({1, 10})"),
    ("card", "{}"),
    ("cmp", "①", "2①"),
    ("measure", "[4..①]"),
    ("measure", "[1..①]\\{5}"),
    ("measure", "{1,2}", "--system", "piraha"),
    ("system", "gross:2:3:1", "min-infinite"),
    ("system", "gross:2:3:1", "max-finite"),
    ("system", "finite:2:10", "expressible", "100"),
    ("system", "gross:3:2:2", "expressible", "①^2+①"),
    ("define", "sqrtfloor(①)", "--cmp", "1000000"),
    ("define", "logfloor(2, 1000)", "--cmp", "9"),
    ("define", "invfloor(pow 3, ①)"),
    ("demo", "halfplane", "--a", "1", "--d", "0"),
    ("demo", "halfplane", "--a", "3", "--d", "1", "--b", "5", "--c", "2"),
    ("demo", "halfplane", "--a", "1/2", "--d", "-1", "--c", "4"),
    ("demo", "halfplane", "--a", "0", "--d", "5"),
    ("demo", "halfplane", "--a", "1", "--d", "1"),
]

# Domain and syntax errors, several quoting ① or naming a ① value.
ERRORS = [
    ("eval", "①①"),
    ("card", "[1..①] | frob(2)"),
    ("cmp", "①", "2**"),
    ("measure", "[1..①]", "--system", "finite:2:10"),
    ("measure", "{1,2,3}", "--system", "piraha"),
    ("system", "piraha", "min-infinite"),
    ("define", "sqrtfloor(①+)"),
    ("demo", "halfplane", "--a", "①", "--d", "0"),
]


def run(argv, *options) -> tuple[int, str, str]:
    """Call the CLI in-process with options placed right after the verb."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], *options, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ascii_output_is_plain_output_with_g1(argv, fmt):
    code, out, err = run(argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert run(argv, "--format", fmt, "--ascii") == (0, out.replace("①", "G1"), "")


def test_the_corpus_writes_the_unit_both_ways():
    # Without values that carry ①, the comparison above would show nothing.
    outputs = [run(argv)[1] for argv in VALID]
    assert sum("①" in out for out in outputs) >= len(VALID) // 2
    assert sum("G1" in run(argv, "--ascii")[1] for argv in VALID) >= len(VALID) // 2


@pytest.mark.parametrize("argv", ERRORS, ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ascii_leaves_error_output_alone(argv, fmt):
    plain = run(argv, "--format", fmt)
    assert plain[0] in (1, 2)
    assert run(argv, "--format", fmt, "--ascii") == plain


@pytest.mark.parametrize("argv", VALID + ERRORS, ids=" ".join)
@pytest.mark.parametrize("ascii_flag", [(), ("--ascii",)])
def test_json_output_matches_the_envelope_schema(argv, ascii_flag):
    code, out, err = run(argv, "--format", "json", *ascii_flag)
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, ENVELOPE_SCHEMA)
    assert ("result" in payload) == (code == 0)


DEMO_KEYS = [
    "A", "C", "B", "subset", "uncovered", "uncovered_left", "uncovered_right", "classical_subset"
]


@pytest.mark.parametrize("argv", [a for a in VALID if a[0] == "demo"], ids=" ".join)
def test_demo_lines_are_the_json_entries_in_order(argv):
    result = json.loads(run(argv, "--format", "json")[1])["result"]
    assert set(result) == set(DEMO_KEYS)
    words = {True: "true", False: "false"}
    expected = [
        f"{key.replace('_', '-')} {words.get(result[key], result[key])}"
        for key in DEMO_KEYS
        if result[key] is not None
    ]
    assert run(argv)[1].splitlines() == expected
