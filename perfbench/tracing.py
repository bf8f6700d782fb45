"""Spans around the benchmark's calls into the library, and what they yield.

Every call the workloads make into a public function of ``grossone`` goes
through a *caller*: ``Direct`` just calls, ``Tracer`` also records a span
``(name, start_ns, end_ns, parent, op_id, error)`` in memory and bumps the
counters below.  Span names are ``<layer>.<function>`` with an optional
size-class suffix (``sets.intersect.n100``).  Spans are written out only
when the run ends; the per-layer metrics are derived from them.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def _terms(args, result):
    return {"gnum.terms": len(result.terms)}


def _set_binary(args, result):
    out = {"sets.parts_in": len(args[0].parts) + len(args[1].parts)}
    if hasattr(result, "parts"):
        out["sets.parts_out"] = len(result.parts)
    return out


def _pieces(args, result):
    return {"measure.pieces": len(result.pieces)}


def _exit_code(code: int):
    return {"cli.exit_nonzero": 1} if code else {}


#: Counters bumped after a call returns, keyed by span name without size class;
#: a call that raises counts only as a span.
COUNT_RULES = {
    "gnum.parse_numeral": _terms,
    "gnum.add": _terms,
    "gnum.mul": _terms,
    "gnum.div_exact": _terms,
    "sets.intersect": _set_binary,
    "sets.difference": _set_binary,
    "sets.union": _set_binary,
    "sets.is_subset": _set_binary,
    "measure.canonical_measurement": _pieces,
    "measure.from_text": _pieces,
    "measure.from_json": _pieces,
    "measure.concat": _pieces,
    "measure.transport": _pieces,
    "numeral_system.measure_in": lambda args, m: {"numeral_system.measure_in.admitted": 1},
    "cli.main": lambda args, code: _exit_code(code),
    "cli.process": lambda args, proc: _exit_code(proc.returncode),
}


def _base(name: str) -> str:
    return ".".join(name.split(".")[:2])


class Direct:
    """Untraced caller: the call and nothing else."""

    def __call__(self, name, fn, *args):
        return fn(*args)

    @contextmanager
    def span(self, name, op_id=None):
        yield


class Tracer:
    """Traced caller: one span per call, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None

    def __call__(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else None
        start = perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:
            self.spans.append((name, start, perf_counter_ns(), parent, self._op, type(exc).__name__))
            raise
        self.spans.append((name, start, perf_counter_ns(), parent, self._op, None))
        rule = COUNT_RULES.get(_base(name))
        if rule is not None:
            self.counts.update(rule(args, result))
        return result

    @contextmanager
    def span(self, name, op_id=None):
        """A parent span (an operation or a census pass) around nested calls."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        outer_op, self._op = self._op, op_id if op_id is not None else self._op
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.spans[index] = (name, start, perf_counter_ns(), parent, self._op, None)
            self._stack.pop()
            self._op = outer_op

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path):
        """Dump the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op_id, error) in enumerate(self.spans):
                row = {"id": index, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op_id, "error": error}
                out.write(json.dumps(row) + "\n")


# ----------------------------------------------------------------- metrics

_SIZES = ("n10", "n100", "n300")
_MEASURE_SIZES = ("n10", "n100", "n1000")

#: Every per-layer metric, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    [(f"gnum.{f}.p50_us", "us") for f in
     ("parse_numeral", "format_numeral", "add", "mul", "div_exact", "cmp")]
    + [("gnum.busy_s", "s"), ("gnum.terms", "count")]
    + [("derived.resolve_finite.p50_us", "us"), ("derived.cmp_defined.p50_us", "us"),
       ("geometry.halfplane_demo.p50_us", "us")]
    + [(f"sets.{f}.{n}.p50_ms", "ms") for f in ("intersect", "difference", "union", "is_subset")
       for n in _SIZES]
    + [("sets.contains.p50_us", "us"), ("sets.cardinality.p50_us", "us"), ("sets.busy_s", "s"),
       ("sets.parts_in", "count"), ("sets.parts_out", "count")]
    + [(f"measure.{f}.{n}.p50_ms", "ms") for f in
       ("canonical_measurement", "to_text", "from_text", "to_json", "from_json")
       for n in _MEASURE_SIZES]
    + [("measure.concat.p50_ms", "ms"), ("measure.transport.p50_ms", "ms"),
       ("measure.busy_s", "s"), ("measure.pieces", "count")]
    + [("numeral_system.measure_in.p50_ms", "ms"), ("numeral_system.measure_in.attempts", "count"),
       ("numeral_system.measure_in.admitted", "count"),
       ("numeral_system.measure_in.admit_ratio", "ratio"),
       ("numeral_system.measure_in.rejected_busy_s", "s")]
    + [("cli.spawn_floor.p50_ms", "ms"), ("cli.import.p50_ms", "ms"), ("cli.main.p50_us", "us"),
       ("cli.exit_nonzero", "count")]
    + [("trace.overhead_ratio", "ratio")]
)

_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}


def per_layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Derive every PER_LAYER metric from the recorded spans and counters."""
    durations: dict[str, list[int]] = {}
    busy: Counter = Counter()
    rejected_ns = 0
    for (name, start, end, _, _, error), own in zip(tracer.spans, tracer.self_times_ns()):
        durations.setdefault(name, []).append(end - start)
        busy[name.split(".")[0]] += own
        if name == "numeral_system.measure_in" and error == "NotExpressible":
            rejected_ns += end - start
    counts = Counter(tracer.counts)
    counts["numeral_system.measure_in.attempts"] = len(durations.get("numeral_system.measure_in", ()))
    out = {}
    for name, unit in PER_LAYER:
        if name.endswith((".p50_us", ".p50_ms")):
            samples = durations.get(name[: -len(".p50_us")])
            if not samples:
                raise RuntimeError(f"no spans recorded for {name}")
            value = statistics.median(samples) * _SCALE[unit]
        elif name.endswith(".busy_s"):
            value = busy[name.split(".")[0]] * _SCALE["s"]
        elif name == "numeral_system.measure_in.rejected_busy_s":
            value = rejected_ns * _SCALE["s"]
        elif name == "numeral_system.measure_in.admit_ratio":
            value = counts["numeral_system.measure_in.admitted"] / counts[
                "numeral_system.measure_in.attempts"]
        elif name == "trace.overhead_ratio":
            value = overhead_ratio
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": unit}
    return out
