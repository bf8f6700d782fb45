"""The line counter's kinds, on a fixed snippet with one line or more of each."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
spec = importlib.util.spec_from_file_location("sloc", PATH)
sloc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sloc)

SNIPPET = '''"""A module docstring,

over three lines."""
# A comment line.
import re


class Pattern:
    """One line."""

    TEXT = """a string that is no docstring,
# not a comment either"""

    def match(self, text):  # a comment after code
        return re.match(self.TEXT, text)
'''


def test_each_line_is_counted_once_by_its_first_kind():
    assert sloc.count(SNIPPET) == {"total": 15, "code": 6, "docstring": 4, "comment": 1, "blank": 4}


def test_the_table_lists_each_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    sloc.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", *sloc.KINDS]
    assert [line.split()[1:] for line in lines[1:]] == [
        ["15", "6", "4", "1", "4"],
        ["1", "1", "0", "0", "0"],
        ["16", "7", "4", "1", "4"],
    ]
