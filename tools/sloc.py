"""Count each Python module's lines by kind: code, docstring, comment and blank.

    python3 tools/sloc.py [PATH ...]

PATH is a file or a directory, searched for ``*.py``; the default is
``src/grossone``.  A line belongs to the first kind that holds for it:
docstring (a line of a module, class or function docstring, blank ones
inside it included), blank, comment (only a comment on it) and code
(everything else, a line of any other string included).  So deleting a
docstring or a comment changes no code count.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of ``source`` of each kind in ``KINDS``; ``total`` is their sum."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in comments and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src/grossone")])
    args = parser.parse_args(argv)
    files = sorted(f for p in args.paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    width = max([len("all"), *(len(str(f)) for f in files)])
    print(f"{'module':<{width}}" + "".join(f"{k:>10}" for k in KINDS))
    totals = dict.fromkeys(KINDS, 0)
    for f in files:
        counts = count(f.read_text(encoding="utf-8"))
        for k in KINDS:
            totals[k] += counts[k]
        print(f"{str(f):<{width}}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'all':<{width}}" + "".join(f"{totals[k]:>10}" for k in KINDS))


if __name__ == "__main__":
    main()
