"""A/B the benchmark: a parent tree against a changed tree, in alternating pairs.

    python3 tools/ab.py PARENT CHANGE --workload measure-roundtrip \
        --seeds 3101-3110 --seconds 16 --label measure-roundtrip

PARENT and CHANGE are the roots of two source checkouts, for example two
revisions exported with ``git archive`` into a temporary directory.  Both
trees' ``src/`` and ``perfbench/`` are compiled first with ``compileall``,
so that both run from the same bytecode state.  Then, for each seed, each
tree runs ``perfbench/run.py --trace 0`` once: the parent first on even
pairs, the change first on odd ones.  Each run must be correct.

``BENCH_<label>.json`` gets every pair's raw end-to-end metrics, each
side's median and quartiles (``statistics.quantiles``, n=4), the pairs the
change won, and each metric's verdict against its bound in CHANGE's
BENCHMARK.json.  The claimed metric, ``ops_per_s``, holds when the change
wins at least nine pairs in ten and its median is higher than the parent's
by more than the parent's quartile distance.  The
last line printed is a one-line summary for CHANGES.md.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = "perfbench/run.py"
CLAIM = "ops_per_s"  # the end-to-end metric a gain is claimed in; higher is better
WIN_SHARE = 0.9  # the claimed metric must win at least this share of the pairs


def parse_seeds(text: str) -> list[int]:
    """Seeds from ``"3101-3110"``, ``"5,9,12"`` or a mix of both."""
    seeds: list[int] = []
    for item in text.split(","):
        first, _, last = item.strip().partition("-")
        seeds += range(int(first), int(last or first) + 1)
    if not seeds:
        raise ValueError("no seeds")
    return seeds


def compile_tree(root: Path) -> None:
    """Write bytecode for the tree's library and harness, so neither side compiles as it runs."""
    for part in ("src", "perfbench"):
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / part)], check=True,
                       stdout=subprocess.DEVNULL)


def run_one(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one correct run in ``root``."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600 + 10 * seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])}: {result['failed']} wrong results")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Medians, quartiles, wins and verdicts of ``pairs`` of ``{"parent": metrics, "change": metrics}``.

    ``end_to_end`` lists BENCHMARK.json's metrics with ``better`` and
    ``bound``.  A metric is worse beyond its bound when the change's median
    is worse than the parent's by more than ``bound`` as a share of the
    parent's median.
    """
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        p, c = quartiles(parent), quartiles(change)
        worse_by = sign * (p["median"] - c["median"]) / p["median"]
        metrics[name] = {
            "parent": p,
            "change": c,
            "ratio": c["median"] / p["median"],
            "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "worse_by": worse_by,
            "bound": spec["bound"],
            "verdict": "ok" if worse_by <= spec["bound"] else "worse beyond bound",
        }
    m = metrics[CLAIM]
    p, c = m["parent"], m["change"]
    difference, spread = c["median"] - p["median"], p["q3"] - p["q1"]
    claimed = {
        "metric": CLAIM,
        "wins": m["wins"],
        "pairs": len(pairs),
        "median_difference": difference,
        "parent_quartile_distance": spread,
        "holds": m["wins"] >= WIN_SHARE * len(pairs) and difference > spread,
    }
    return {"metrics": metrics, "claim": claimed}


def summary_line(label: str, workload: str, seeds: list[int], seconds: float, summary: dict) -> str:
    """The CHANGES.md line of a summary: the claimed metric, then any metric worse beyond its bound."""
    claim, metrics = summary["claim"], summary["metrics"]
    m = metrics[claim["metric"]]
    p, c = m["parent"], m["change"]
    consecutive = seeds == list(range(seeds[0], seeds[-1] + 1))
    seed_text = f"{seeds[0]}-{seeds[-1]}" if consecutive else ",".join(map(str, seeds))
    worse = [f"{name} {v['worse_by']:+.1%} worse (bound {v['bound']:.0%})"
             for name, v in metrics.items() if v["verdict"] != "ok"]
    return (
        f"{label}: {workload} {claim['metric']} {p['median']:.4g} -> {c['median']:.4g} "
        f"({m['ratio']:.3f}x) in the median, quartiles {p['q1']:.4g}-{p['q3']:.4g} -> {c['q1']:.4g}-{c['q3']:.4g}, "
        f"change ahead in {claim['wins']} of {claim['pairs']} alternating {seconds:g} s pairs on seeds {seed_text}; "
        f"median difference {claim['median_difference']:.4g} against the parent's quartile distance of "
        f"{claim['parent_quartile_distance']:.4g}; claim {'holds' if claim['holds'] else 'does not hold'}; "
        + ("; ".join(worse) if worse else "every end-to-end metric within its bound") + "."
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "3101-3110" or "5,9,12"')
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the output file")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds must give at least two seeds, for quartiles")
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    for root in (parent, change):
        compile_tree(root)
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_one(parent if side == "parent" else change, args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {pair['parent'][name]:.4g}/{pair['change'][name]:.4g}" for name in pair["parent"]), flush=True)
    summary = summarize(pairs, spec["end_to_end"])
    doc = {
        "label": args.label,
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "pairs": pairs,
        **summary,
    }
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print(summary_line(args.label, args.workload, args.seeds, args.seconds, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
