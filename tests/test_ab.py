"""The A/B tool's summary, on fixed numbers: medians, quartiles, wins, verdicts and the claim.

``tools/ab.py`` runs the benchmark, which tier-1 never does; only its pure
summary functions are tested here.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", PATH)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.2},
    {"name": "op_p50_ms", "better": "lower", "bound": 0.2},
]


def pairs(parent_ops, change_ops, parent_ms, change_ms):
    return [
        {"seed": i, "parent": {"ops_per_s": a, "op_p50_ms": c}, "change": {"ops_per_s": b, "op_p50_ms": d}}
        for i, (a, b, c, d) in enumerate(zip(parent_ops, change_ops, parent_ms, change_ms))
    ]


PARENT_OPS = [600, 610, 590, 605, 595, 600, 620, 580, 600, 610]
CHANGE_OPS = [700, 705, 690, 710, 695, 700, 720, 680, 590, 705]
FLAT_MS = [1.0] * 10


def test_parse_seeds():
    assert ab.parse_seeds("3101-3105") == [3101, 3102, 3103, 3104, 3105]
    assert ab.parse_seeds("5,9, 12-13") == [5, 9, 12, 13]
    with pytest.raises(ValueError):
        ab.parse_seeds("x")


def test_medians_quartiles_and_wins():
    summary = ab.summarize(pairs(PARENT_OPS, CHANGE_OPS, FLAT_MS, [0.8] * 9 + [1.3]), END_TO_END)
    ops = summary["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 600.0, "q1": 593.75, "q3": 610.0}
    assert ops["change"] == {"median": 700.0, "q1": 687.5, "q3": 706.25}
    assert ops["wins"] == 9
    assert ops["ratio"] == pytest.approx(700 / 600)
    assert ops["worse_by"] == pytest.approx(-100 / 600)
    assert ops["verdict"] == "ok"
    ms = summary["metrics"]["op_p50_ms"]
    assert ms["wins"] == 9 and ms["change"]["median"] == pytest.approx(0.8)
    assert ms["worse_by"] == pytest.approx(-0.2) and ms["verdict"] == "ok"
    assert summary["claim"] == {
        "metric": "ops_per_s",
        "wins": 9,
        "pairs": 10,
        "median_difference": 100.0,
        "parent_quartile_distance": 16.25,
        "holds": True,
    }


def test_a_claim_needs_nine_wins_in_ten_and_a_gain_past_the_parents_quartiles():
    eight = CHANGE_OPS[:7] + [570, 590, 705]
    assert ab.summarize(pairs(PARENT_OPS, eight, FLAT_MS, FLAT_MS), END_TO_END)["claim"]["wins"] == 8
    assert not ab.summarize(pairs(PARENT_OPS, eight, FLAT_MS, FLAT_MS), END_TO_END)["claim"]["holds"]
    # Ahead in every pair, but the medians differ by 10 against a quartile distance of 16.25.
    close = [x + 10 for x in PARENT_OPS]
    claim = ab.summarize(pairs(PARENT_OPS, close, FLAT_MS, FLAT_MS), END_TO_END)["claim"]
    assert claim["wins"] == 10 and not claim["holds"]


def test_a_metric_worse_beyond_its_bound_is_named():
    summary = ab.summarize(pairs(PARENT_OPS, CHANGE_OPS, FLAT_MS, [1.25] * 10), END_TO_END)
    ms = summary["metrics"]["op_p50_ms"]
    assert ms["worse_by"] == pytest.approx(0.25) and ms["verdict"] == "worse beyond bound"
    line = ab.summary_line("x", "measure-roundtrip", list(range(3101, 3111)), 16, summary)
    assert line == (
        "x: measure-roundtrip ops_per_s 600 -> 700 (1.167x) in the median, quartiles 593.8-610 -> 687.5-706.2, "
        "change ahead in 9 of 10 alternating 16 s pairs on seeds 3101-3110; median difference 100 against the "
        "parent's quartile distance of 16.25; claim holds; op_p50_ms +25.0% worse (bound 20%)."
    )


def test_the_summary_line_of_a_clean_claim():
    summary = ab.summarize(pairs(PARENT_OPS, CHANGE_OPS, FLAT_MS, FLAT_MS), END_TO_END)
    line = ab.summary_line("x", "w", [5, 9], 8, summary)
    assert line.endswith("on seeds 5,9; median difference 100 against the parent's quartile distance of "
                         "16.25; claim holds; every end-to-end metric within its bound.")
