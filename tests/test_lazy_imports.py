"""Lazy package exports: each CLI verb imports only the submodules it uses."""

import ast
import subprocess
import sys
from importlib import import_module

import pytest

import grossone

LOADED = 'print(sorted(m for m in sys.modules if m.startswith("grossone.")))'


def loaded_after(code: str) -> set[str]:
    """The grossone submodules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{LOADED}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = ast.literal_eval(proc.stdout.splitlines()[-1])
    return {name.removeprefix("grossone.") for name in names}


def loaded_by_verb(*argv: str) -> set[str]:
    return loaded_after(f"from grossone.cli import main\nmain({list(argv)!r})")


def json_loaded_by_verb(*argv: str) -> bool:
    """Whether a fresh interpreter holds ``json`` after running the verb."""
    code = f"import sys\nfrom grossone.cli import main\nmain({list(argv)!r})\nprint('json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def added_by_verb(names: set[str], *argv: str) -> set[str]:
    """Which of the modules ``names`` a fresh interpreter loads to run the verb, past those it starts with."""
    code = (
        f"import sys\nbefore = set(sys.modules)\nfrom grossone.cli import main\nmain({list(argv)!r})\n"
        f"print(sorted((set(sys.modules) - before) & {names!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


class TestImportSet:
    CORE = {"cli", "errors", "gnum"}

    def test_bare_import_loads_no_submodule(self):
        assert loaded_after("import grossone") == set()

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--", "2①+1"), ("eval", "7①+", "--format", "json"), ("cmp", "①", "①+1")],
    )
    def test_numeral_verbs_load_only_the_core(self, argv):
        assert loaded_by_verb(*argv) == self.CORE

    def test_card_adds_only_sets(self):
        assert loaded_by_verb("card", "[1..①]\\{1}") == self.CORE | {"sets"}

    def test_measure_without_a_system(self):
        loaded = loaded_by_verb("measure", "[4..①]")
        assert loaded == self.CORE | {"sets", "measure"}
        assert not loaded & {"numeral_system", "derived", "geometry"}

    def test_measure_with_a_system_adds_numeral_system(self):
        loaded = loaded_by_verb("measure", "{1,2}", "--system", "piraha")
        assert loaded == self.CORE | {"sets", "measure", "numeral_system"}

    def test_system_queries_leave_out_measure_and_sets(self):
        loaded = loaded_by_verb("system", "finite:2:10", "max-finite")
        assert loaded == self.CORE | {"numeral_system"}

    def test_define_and_demo(self):
        assert loaded_by_verb("define", "sqrtfloor(10)") == self.CORE | {"derived"}
        loaded = loaded_by_verb("demo", "halfplane", "--a", "1", "--d", "2")
        assert loaded == self.CORE | {"geometry"}

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--", "2①+1"), ("cmp", "①", "①+1"), ("card", "[1..①]\\{1}"), ("measure", "[4..①]")],
    )
    def test_text_mode_verbs_leave_json_unloaded(self, argv):
        assert not json_loaded_by_verb(*argv)
        assert json_loaded_by_verb(argv[0], "--format", "json", *argv[1:])

    # ``dataclasses`` and the modules it imports: about a quarter of the
    # CLI's import time, and no value class needs them.
    SLOW_STDLIB = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--", "2①+1"),
            ("eval", "7①+", "--format", "json"),
            ("cmp", "①", "①+1"),
            ("card", "[1..①]\\{1}"),
            ("measure", "[4..①]", "--format", "json"),
            ("measure", "{1,2}", "--system", "piraha"),
            ("system", "gross:2:3:1", "min-infinite"),
            ("system", "finite:2:10", "expressible", "100"),
            ("define", "sqrtfloor(10)", "--cmp", "3"),
            ("demo", "halfplane", "--a", "1", "--d", "2"),
        ],
    )
    def test_no_verb_loads_dataclasses_or_what_it_imports(self, argv):
        assert added_by_verb(self.SLOW_STDLIB, *argv) == set()

    def test_the_measure_verb_leaves_the_row_pattern_uncompiled(self):
        # The line-based reader's whole-row pattern takes about a millisecond to compile.
        code = (
            "from grossone.cli import main\nimport grossone.measure as m\nmain(['measure', '[4..①]'])\n"
            "print(m._INT_ROW is None)\nm.from_text('mu 1\\npiece 1 1\\ntarget [1..1]')\nprint(m._INT_ROW is None)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["True", "False"]

    def test_one_name_loads_its_submodule_and_what_that_imports(self):
        assert loaded_after("import grossone\ngrossone.intersect") == {"errors", "gnum", "sets"}


class TestPublicNames:
    def test_every_name_is_its_submodule_attribute(self):
        for name in grossone.__all__:
            module = import_module(f"grossone.{grossone._ORIGIN[name]}")
            assert getattr(grossone, name) is getattr(module, name), name

    def test_all_lists_every_public_name_once(self):
        # The 90 names the package exported when it imported them eagerly.
        assert len(grossone.__all__) == len(set(grossone.__all__)) == 90
        assert set(grossone.__all__) == set(grossone._ORIGIN)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from grossone import *", namespace)
        for name in grossone.__all__:
            assert namespace[name] is getattr(grossone, name), name

    def test_names_are_cached_after_first_access(self):
        grossone.cardinality
        assert "cardinality" in vars(grossone)

    def test_submodules_resolve_as_attributes(self):
        for name in ("cli", "derived", "errors", "geometry", "gnum", "measure", "numeral_system", "sets"):
            assert getattr(grossone, name) is import_module(f"grossone.{name}")

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            grossone.no_such_name

    def test_dir_lists_names_and_submodules(self):
        listing = dir(grossone)
        assert set(grossone.__all__) <= set(listing)
        assert {"sets", "cli", "__version__"} <= set(listing)

    def test_version_is_eager(self):
        assert "__version__" in vars(grossone)
