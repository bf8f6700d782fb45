"""Time a fast path against its general path: two source trees in one process, alternating.

    python3 tools/forks.py BASE VARIANT --workload numeral-mix --seed 9901 --cycles 30
    python3 tools/forks.py BASE --null --workload set-algebra --cycles 80
    python3 tools/forks.py BASE VARIANT --cycles 15 \\
        --setup 'x = "|".join(f"[{3 * k}..{3 * k + 1}]" for k in range(4000))' \\
        --stmt 'g.parse_set_expression(x)'

BASE and VARIANT are the roots of two source checkouts, for example HEAD
exported with ``git archive`` and a copy of it with one fork deleted.  Both
trees are compiled first, as ``tools/ab.py`` compiles them, and both
``src/grossone`` packages are loaded into this one process under two names,
so the two sides share the interpreter, its caches and the machine's drift.
``--null`` loads BASE twice, a control for the spread of the ratio.

With ``--workload``, each side builds one cycle of the workload's operations
from the same seed through ``perfbench/workloads.py`` of this checkout,
imported and left unchanged, and the first ``CHECKED`` operations of each
side must pass the workload's ``check``.  A cycle then times the workload's
``run`` over every operation, once per side.  With ``--stmt``, ``--setup``
runs once per side with ``g`` bound to that side's package, and a cycle
times ``--number`` runs of the statement; where the statement is an
expression, its two values must have the same ``repr``.

Each cycle times both sides after one untimed warm-up each, the side that
goes first alternating.  The ratio of a cycle is the variant's time over
the base's: with the fork deleted in VARIANT, a ratio above 1 means the
fork is faster.  Printed: the median ratio, its quartiles and the cycles in
which the base was faster.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import textwrap
import time
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(PERFBENCH))

from ab import compile_tree  # noqa: E402
from tracing import Direct  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# cli-oneshot starts ``python -m grossone`` processes of this checkout, so
# it cannot time a loaded tree.
IN_PROCESS = ("numeral-mix", "set-algebra", "measure-roundtrip")
SIDES = ("base", "variant")
CHECKED = 20  # operations of each side checked before any is timed


def load(root: Path, name: str):
    """The ``grossone`` package of the tree at ``root``, imported as the top-level package ``name``."""
    init = root / "src" / "grossone" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def workload_timer(name: str, g, seed: int, tiny: bool):
    """One cycle of the workload's ``run`` for package ``g``, its first ``CHECKED`` operations checked."""
    wl, call = WORKLOADS[name], Direct()
    ops = wl.build(g, Random(seed), tiny)
    for op in ops[:CHECKED]:
        if not wl.check(g, op, wl.run(call, g, op)):
            raise SystemExit(f"{g.__name__}: a wrong {name} result")
    run = wl.run

    def cycle():
        for op in ops:
            run(call, g, op)

    return cycle


def statement_timer(g, setup: str, stmt: str, number: int):
    """``number`` runs of ``stmt`` for package ``g``, in the globals ``setup`` left; and its value, if any."""
    names = {"g": g}
    exec(setup, names)
    exec("def _cycle():\n    for _ in range(_number):\n" + textwrap.indent(stmt, " " * 8) + "\n", names)
    names["_number"] = number
    try:
        value = repr(eval(compile(stmt, "<stmt>", "eval"), names))
    except SyntaxError:
        value = None
    return names["_cycle"], value


def timed_ns(cycle) -> int:
    gc.collect()
    start = time.perf_counter_ns()
    cycle()
    return time.perf_counter_ns() - start


def alternate(cycles: dict, count: int) -> list[tuple[int, int]]:
    """``count`` (base, variant) times, the base first in even cycles and the variant in odd ones."""
    for side in SIDES:
        cycles[side]()
    times = []
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        took = {side: timed_ns(cycles[side]) for side in order}
        times.append((took["base"], took["variant"]))
    return times


def summary(times: list[tuple[int, int]]) -> dict:
    """The median and quartiles of variant ÷ base over the cycles, and the cycles the base won."""
    ratios = [variant / base for base, variant in times]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "base_faster": sum(base < variant for base, variant in times), "cycles": len(times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="root of the tree that holds the fork")
    parser.add_argument("variant", type=Path, nargs="?", help="root of the tree without it")
    parser.add_argument("--null", action="store_true", help="time BASE against a second copy of itself")
    parser.add_argument("--workload", choices=IN_PROCESS)
    parser.add_argument("--seed", type=int, default=9901)
    parser.add_argument("--tiny", action="store_true", help="the workload's self-check sizes")
    parser.add_argument("--setup", default="", help="run once per side, with g the side's package")
    parser.add_argument("--stmt", help="timed in place of a workload")
    parser.add_argument("--number", type=int, default=1, help="runs of --stmt per cycle")
    parser.add_argument("--cycles", type=int, default=30)
    args = parser.parse_args(argv)
    if (args.variant is None) != args.null:
        parser.error("give VARIANT or --null, not both")
    if (args.workload is None) == (args.stmt is None):
        parser.error("give --workload or --stmt")
    if args.cycles < 2:
        parser.error("--cycles must be at least 2, for quartiles")
    roots = {"base": args.base.resolve(), "variant": (args.variant or args.base).resolve()}
    for root in set(roots.values()):
        compile_tree(root)
    cycles, values = {}, {}
    for side in SIDES:
        g = load(roots[side], f"grossone_{side}")
        if args.workload:
            cycles[side] = workload_timer(args.workload, g, args.seed, args.tiny)
        else:
            cycles[side], values[side] = statement_timer(g, args.setup, args.stmt, args.number)
    if values and values["base"] != values["variant"]:
        raise SystemExit(f"the statement's values differ: {values['base']} and {values['variant']}")
    s = summary(alternate(cycles, args.cycles))
    what = args.workload or "statement"
    print(f"{what}: variant/base {s['median']:.3f} in the median (quartiles {s['q1']:.3f}-{s['q3']:.3f}), "
          f"base faster in {s['base_faster']} of {s['cycles']} cycles"
          + (" (null control)" if args.null else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
