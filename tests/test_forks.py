"""The in-process fork timer: two trees loaded side by side, checked, then timed in turn.

``tools/forks.py`` is run here on the self-check sizes for two cycles, so
these tests check what it loads, checks and prints, not its figures.
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "tools" / "forks.py"
spec = importlib.util.spec_from_file_location("forks", PATH)
forks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(forks)


def run(*args):
    return subprocess.run([sys.executable, str(PATH), *map(str, args)], capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("workload", forks.IN_PROCESS)
def test_a_null_control_on_tiny_inputs(workload):
    proc = run(ROOT, "--null", "--workload", workload, "--tiny", "--cycles", 2)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{workload}: variant/base ")
    assert proc.stdout.rstrip().endswith("of 2 cycles (null control)")


def test_a_statement_is_timed_and_its_values_compared():
    proc = run(ROOT, "--null", "--setup", "x = '{1}|[3..4]'", "--stmt", "g.cardinality(g.parse_set_expression(x))",
               "--number", 3, "--cycles", 2)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("statement: variant/base ")


def test_a_variant_with_wrong_results_is_refused(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__", "out"))
    gnum = tmp_path / "src" / "grossone" / "gnum.py"
    source = gnum.read_text(encoding="utf-8")
    wrong = "        return _built(_merge(self.terms, terms, -1))"
    assert source.count(wrong) == 1
    gnum.write_text(source.replace(wrong, "        return _built(_merge(self.terms, terms, 1))"), encoding="utf-8")
    proc = run(ROOT, tmp_path, "--workload", "numeral-mix", "--tiny", "--cycles", 2)
    assert proc.returncode != 0
    assert "grossone_variant: a wrong numeral-mix result" in proc.stderr
    proc = run(ROOT, tmp_path, "--stmt", "g.parse_numeral('3') - 1", "--cycles", 2)
    assert proc.returncode != 0
    assert "the statement's values differ" in proc.stderr


def test_the_summary_of_fixed_times():
    times = [(100, 110), (100, 90), (100, 120), (100, 105)]
    assert forks.summary(times) == {
        "median": pytest.approx(1.075), "q1": pytest.approx(0.9375), "q3": pytest.approx(1.175),
        "base_faster": 3, "cycles": 4,
    }


def test_it_refuses_a_variant_and_null_together():
    assert run(ROOT, ROOT, "--null", "--workload", "numeral-mix").returncode == 2
    assert run(ROOT, "--workload", "numeral-mix").returncode == 2
    assert run(ROOT, "--null").returncode == 2
