"""Layered benchmark of the grossone library and CLI.

    python3 perfbench/run.py --workload set-algebra --seed 7 --seconds 16 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  Workloads (see ``workloads.py``):
``numeral-mix``, ``set-algebra``, ``measure-roundtrip``, ``cli-oneshot``.
Each is a closed loop with one caller: the next operation starts when the
previous one has returned.  The seed makes the inputs; the library sees
only them.

``--trace 0`` measures the end-to-end metrics: set-up time (a fresh import
of ``grossone`` plus building the seeded inputs, the median of several
set-ups), operations per second and the median and 90th-percentile
operation latency over whole cycles of operations lasting about
``--seconds``, and peak resident memory.  Times are scaled by a calibration
loop timed between operations (see ``Speedometer``), so that they read as
on a machine of fixed speed; the unscaled figures go to the ``#`` lines
printed before the result.  ``--trace 1`` runs a fixed number
of cycles untraced and then traced, plus a short fixed census of every
layer, and derives the per-layer metrics from
the spans (written to ``perfbench/out/``).  Every result is checked against
the naive oracles outside the timed calls; a wrong result counts in
``failed``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, Direct, Tracer, per_layer_metrics  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

E2E = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
SETUP_REPEATS = 5
HARD_CAP_S = 120.0
SPAN_DIR = HERE / "out"
# The machine's speed drifts by a fifth within and between runs, for
# library and plain interpreter work alike.  Each operation's time is
# divided by the slowdown of a calibration loop timed around it, so times
# read as on a machine where that loop takes CALIBRATION_NOMINAL_NS.
CALIBRATION_NOMINAL_NS = 2_000_000
CALIBRATION_EVERY_NS = 20_000_000
CALIBRATION_NEIGHBOURS = 2
_CALIBRATION_FRACTIONS = [Fraction(i, i % 7 + 1) for i in range(1, 120)]


def calibration_loop_ns() -> int:
    """Time fixed integer, Fraction and dict work that touches no library code."""
    start = time.perf_counter_ns()
    acc, table, total = 0, {}, Fraction(0)
    for k in range(10_000):
        acc += k * k % 7
    for q in _CALIBRATION_FRACTIONS:
        total += q * q
        table[q.denominator, q.numerator] = total
    sorted(table)
    return time.perf_counter_ns() - start


class Speedometer:
    """Calibration samples taken between operations, about every 20 ms."""

    def __init__(self):
        self.at_ns: list[int] = []
        self.took_ns: list[int] = []

    def sample(self, force=False):
        if force or not self.at_ns or time.perf_counter_ns() - self.at_ns[-1] >= CALIBRATION_EVERY_NS:
            took = calibration_loop_ns()
            self.at_ns.append(time.perf_counter_ns())
            self.took_ns.append(took)

    def slowdown_at(self, t_ns: int) -> float:
        """Median slowdown of the calibrations nearest in time to ``t_ns``."""
        i = bisect.bisect(self.at_ns, t_ns)
        near = self.took_ns[max(0, i - CALIBRATION_NEIGHBOURS): i + CALIBRATION_NEIGHBOURS]
        return statistics.median(near) / CALIBRATION_NOMINAL_NS

    def scaled_ns(self, spans) -> list[float]:
        """Durations of ``(start_ns, duration_ns)`` spans at nominal speed."""
        return [d / self.slowdown_at(t + d // 2) for t, d in spans]


def import_grossone():
    """Import the package afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "grossone" or m.startswith("grossone.")]:
        del sys.modules[name]
    g = importlib.import_module("grossone")
    if not Path(g.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"grossone came from {g.__file__}, not from {SRC}")
    return g


def setup(wl, seed: int, tiny: bool, repeats: int, speed: Speedometer):
    """Import and build the inputs ``repeats`` times; keep the last, time the median."""
    times = []
    for _ in range(repeats):
        gc.collect()
        speed.sample(force=True)
        start = time.perf_counter_ns()
        g = import_grossone()
        cycle = wl.build(g, Random(seed), tiny)
        times.append((start, time.perf_counter_ns() - start))
    speed.sample(force=True)
    # Keep the inputs out of the collector's sight, so that collections
    # cost what the operations allocate, not what the inputs hold.
    gc.collect()
    gc.freeze()
    return g, cycle, times


class Tally:
    """Start and duration of each operation run so far, and the failures."""

    def __init__(self):
        self.spans_ns: list[tuple[int, int]] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.spans_ns)


def ops_per_s(durations_ns) -> float:
    return len(durations_ns) / (sum(durations_ns) / 1e9)


def _report_failure(wl, op, detail):
    if isinstance(detail, BaseException):
        detail = "".join(traceback.format_exception(detail)).rstrip()
    sys.stderr.write(f"[{wl.name}] wrong result for {str(op)[:200]}: {detail}\n")


def run_ops(wl, g, ops, caller, tally: Tally, speed: Speedometer | None, *, seconds=None,
            cycles=None, min_ops=MIN_OPS, plant_fault=False):
    """Run whole cycles of ``ops``: a fixed number, or about ``seconds`` worth."""
    start = time.perf_counter()
    done = 0
    while True:
        cycle_start = time.perf_counter()
        for op in ops:
            if speed is not None:
                speed.sample()
            with caller.span("op", tally.attempted):
                t0 = time.perf_counter_ns()
                try:
                    result = wl.run(caller, g, op)
                except Exception as exc:  # an unexpected error is a failed operation
                    result = exc
                tally.spans_ns.append((t0, time.perf_counter_ns() - t0))
            if plant_fault and tally.attempted == 1:
                result = wl.corrupt(g, op, result)
            try:
                ok = not isinstance(result, Exception) and wl.check(g, op, result)
            except Exception as exc:
                ok, result = False, exc
            if not ok:
                tally.failed += 1
                if not plant_fault:
                    _report_failure(wl, op, result)
        done += 1
        if cycles is not None:
            if done >= cycles:
                return
            continue
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - cycle_start
        if elapsed > HARD_CAP_S or (tally.attempted >= min_ops and seconds - elapsed < last / 2):
            return


def _timings(latencies_ns, setups_ns) -> dict:
    deciles = statistics.quantiles(latencies_ns, n=10)
    return {
        "setup_s": statistics.median(setups_ns) / 1e9,
        "ops_per_s": ops_per_s(latencies_ns),
        "op_p50_ms": deciles[4] / 1e6,
        "op_p90_ms": deciles[8] / 1e6,
    }


def measure_end_to_end(wl, seed, seconds, tiny, plant_fault):
    speed = Speedometer()
    g, ops, setups = setup(wl, seed, tiny, SETUP_REPEATS, speed)
    tally = Tally()
    run_ops(wl, g, ops, Direct(), tally, speed, seconds=seconds,
            min_ops=10 if tiny else MIN_OPS, plant_fault=plant_fault)
    speed.sample(force=True)
    values = _timings(speed.scaled_ns(tally.spans_ns), speed.scaled_ns(setups))
    raw = _timings([d for _, d in tally.spans_ns], [d for _, d in setups])
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-oneshot" else resource.RUSAGE_SELF
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
    slowdown = statistics.median(speed.took_ns) / CALIBRATION_NOMINAL_NS
    note = (f"{tally.attempted} operations (latency samples); machine {slowdown:.3f}x nominal "
            f"over {len(speed.took_ns)} calibrations; unscaled: "
            + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    return tally, metrics, note


def measure_layers(wl, seed, tiny):
    speed = Speedometer()
    g, ops, _ = setup(wl, seed, tiny, 1, speed)
    plain, tally = Tally(), Tally()
    run_ops(wl, g, ops, Direct(), plain, speed, cycles=wl.trace_cycles)
    tracer = Tracer()
    run_ops(wl, g, ops, tracer, tally, speed, cycles=wl.trace_cycles)
    speed.sample(force=True)
    overhead = ops_per_s(speed.scaled_ns(plain.spans_ns)) / ops_per_s(speed.scaled_ns(tally.spans_ns))
    for other in WORKLOADS.values():
        census = other.build(g, Random(f"{seed}:census:{other.name}"), tiny, census=True)
        with tracer.span(f"census.{other.name}"):
            run_ops(other, g, census, tracer, tally, None, cycles=1)
    tracer.write(SPAN_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
    tally.failed += plain.failed
    tally.spans_ns += plain.spans_ns
    note = f"{len(tracer.spans)} spans, {tally.attempted} operations"
    return tally, per_layer_metrics(tracer, overhead), note


def run_once(name, seed, seconds, trace, tiny=False, plant_fault=False):
    """One benchmark run; returns the result object printed as the last line."""
    wl = WORKLOADS[name]
    if trace:
        tally, metrics, note = measure_layers(wl, seed, tiny)
    else:
        tally, metrics, note = measure_end_to_end(wl, seed, seconds, tiny, plant_fault)
    print(f"# {name} seed={seed} trace={int(trace)}: {note}")
    for key, m in metrics.items():
        print(f"#   {key:48s} {m['value']:.6g} {m['unit']}")
    print(f"#   {'error_rate':48s} {tally.failed / tally.attempted:.6g} ratio")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def self_check() -> int:
    """Tiny runs of every workload: every metric named, and a planted fault caught."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(E2E):
        problems.append("end_to_end metrics in BENCHMARK.json differ from the harness")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(PER_LAYER):
        problems.append("per_layer metrics in BENCHMARK.json differ from the harness")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from the harness")
    for name in WORKLOADS:
        for trace, expected in ((False, E2E), (True, PER_LAYER)):
            result = run_once(name, 1, 0, trace, tiny=True)
            metrics = result["metrics"]
            if list(metrics) != [n for n, _ in expected]:
                problems.append(f"{name} trace={int(trace)}: metric names differ")
            if any(not m["value"] > 0 for m in metrics.values()):
                problems.append(f"{name} trace={int(trace)}: a metric is not positive")
            if result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} wrong results")
        if not run_once(name, 1, 0, False, tiny=True, plant_fault=True)["failed"]:
            problems.append(f"{name}: a planted wrong result went unnoticed")
    for problem in problems:
        print(f"SELF-CHECK FAIL: {problem}")
    print("self-check ok" if not problems else f"self-check: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny run of every workload: all metrics named, faults caught")
    args = parser.parse_args(argv)
    if not (SRC / "grossone" / "__init__.py").is_file():
        sys.stderr.write(f"no grossone sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
