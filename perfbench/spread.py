"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 --first-seed 101 --json spread.json
    python3 perfbench/spread.py --workload set-algebra --seeds 5 --trace 1

For every workload and metric it prints the median, the quartiles (from
``statistics.quantiles(values, n=4)``), the sample count and the spread:
the distance between the quartiles as a share of the median.  With
``--trace 0`` each spread is set beside the metric's bound in
BENCHMARK.json (setup_s is exempt from that comparison).  Runs are made one
after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)}: {result['failed']} wrong results\n{proc.stderr}")
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary, worst = {}, 0.0
    for workload in workloads:
        samples: dict[str, list] = {}
        for seed in seeds:
            result = run(spec, workload, seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in list(result["metrics"].items())[:5]), flush=True)
        summary[workload] = {name: summarize(v) for name, v in samples.items()}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, s["spread"] / bound)
                verdict = f"bound {bound:.2f} {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {workload:18s} {name:46s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {verdict}")
    if args.json:
        args.json.write_text(json.dumps({"seeds": seeds, "seconds": args.seconds,
                                         "trace": args.trace, "metrics": summary}, indent=1) + "\n")
    if args.trace == 0:
        print(f"widest spread is {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
