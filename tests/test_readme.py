"""README examples run as written: its >>> sessions and its `grossone ... # -> X` lines."""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from grossone.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
CLI_EXAMPLE = re.compile(r"^grossone (?P<call>.*?)\s+#.*-> (?P<expected>\S+)\s*$")


def cli_examples() -> list[tuple[str, str]]:
    lines = README.read_text(encoding="utf-8").splitlines()
    return [(m["call"], m["expected"]) for m in map(CLI_EXAMPLE.match, lines) if m]


def test_doctests_pass():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


def test_readme_has_cli_examples():
    assert len(cli_examples()) >= 5


@pytest.mark.parametrize("call, expected", cli_examples())
def test_cli_example_prints_what_the_readme_says(call, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(call))
    assert code == 0
    assert out.getvalue().splitlines()[-1] == expected
