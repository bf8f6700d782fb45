"""The package source holds no floating point: every value it computes is exact."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"
INEXACT_MODULES = {"math", "cmath", "decimal", "statistics"}


def inexact_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float or complex literal, use of ``float``, or inexact import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "name float"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[0] in INEXACT_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in INEXACT_MODULES:
            found.append((node.lineno, f"from {node.module} import"))
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_source_has_no_floating_point(path):
    assert inexact_uses(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_the_guard_sees_every_form():
    code = "from math import log10\nimport cmath, os\nimport decimal.x\nx = 1.5\ny = 2j\nz = float\n"
    assert [line for line, _ in inexact_uses(ast.parse(code))] == [1, 2, 3, 4, 5, 6]
    assert len(sorted(SOURCE.glob("*.py"))) >= 9
