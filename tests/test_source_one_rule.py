"""The gross-integer rule has one home: only gnum reads it off ``classify``.

Every other module asks through gnum's gate or predicate, so no module
builds a ``NumberClass`` only to read its ``is_integer`` flag.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"


def integer_reads_off_classify(tree: ast.AST) -> list[int]:
    """Lines where ``.is_integer`` is read straight off a ``classify(...)`` call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "is_integer" and isinstance(node.value, ast.Call):
            func = node.value.func
            if (isinstance(func, ast.Name) and func.id == "classify") or (
                isinstance(func, ast.Attribute) and func.attr == "classify"
            ):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(SOURCE.glob("*.py")) if p.name != "gnum.py"], ids=lambda path: path.name
)
def test_no_module_reads_the_rule_off_classify(path):
    assert integer_reads_off_classify(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_the_rule_guard_sees_every_form():
    code = (
        "a = classify(x).is_integer\n"
        "b = gnum.classify(x).is_integer\n"
        "c = classify(x).is_finite\n"
        "d = kind.is_integer\n"
        "if not classify(y).is_integer: pass\n"
    )
    assert integer_reads_off_classify(ast.parse(code)) == [1, 2, 5]
    assert len(sorted(SOURCE.glob("*.py"))) >= 9
