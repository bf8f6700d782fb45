"""The bit-length bracket of two powers has one home: gnum's ``_power_order``.

Outside gnum, ``.bit_length()`` is called only by ``derived._power_cost``,
the cost estimate of building a power, and no other module defines its
own ``_log2_floor``.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"
#: (module, function) pairs allowed to call ``.bit_length()`` outside gnum.
COST_ESTIMATES = {("derived.py", "_power_cost")}


def bracket_pieces(tree: ast.AST, module: str) -> list[int]:
    """Lines that call ``.bit_length()`` outside a cost estimate, or define ``_log2_floor``."""
    found = []

    def walk(node: ast.AST, function: str | None):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "_log2_floor":
                    found.append(child.lineno)
                inner = child.name if function is None else function
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "bit_length"
                and (module, function) not in COST_ESTIMATES
            ):
                found.append(child.lineno)
            walk(child, inner)

    walk(tree, None)
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in sorted(SOURCE.glob("*.py")) if p.name != "gnum.py"], ids=lambda path: path.name
)
def test_no_module_but_gnum_brackets_powers(path):
    assert bracket_pieces(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.name) == []


def test_the_power_guard_sees_every_form():
    code = (
        "def _log2_floor(q):\n"
        "    return q.bit_length()\n"
        "def _power_cost(x, k):\n"
        "    def weight(c):\n"
        "        return c.bit_length()\n"
        "    return int(x).bit_length()\n"
        "k = (5).bit_length()\n"
        "n = len(bits)\n"
    )
    tree = ast.parse(code)
    assert bracket_pieces(tree, "derived.py") == [1, 2, 7]
    assert bracket_pieces(tree, "sets.py") == [1, 2, 5, 6, 7]
    assert len(sorted(SOURCE.glob("*.py"))) >= 9
