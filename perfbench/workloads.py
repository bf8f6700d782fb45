"""The four workloads: seeded inputs, the calls each operation makes, its check.

A workload builds one *cycle* of operations from a seed through the
library's public constructors, runs each operation through a caller (see
``tracing``), and checks each result against ``oracle``, outside the timed
calls.  The cycle has a fixed make-up (so many operations of each size
class), so seeds change the inputs but not the amount of work.

``build(g, rng, tiny, census)`` takes ``g``, the imported ``grossone``
package.  ``census=True`` gives the short fixed pass through this
workload's layers that every traced run makes, so that each traced run
reports every layer.  ``tiny=True`` shrinks every size for the self-check.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import oracle as o

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FULL_SIZES = {"n10": 10, "n100": 100, "n300": 300, "n1000": 1000}
TINY_SIZES = {"n10": 3, "n100": 4, "n300": 5, "n1000": 6}


def _sizes(tiny: bool) -> dict:
    return TINY_SIZES if tiny else FULL_SIZES


# ------------------------------------------------------------------ numerals


#: Exponents a generated numeral draws from: integer, fractional, negative.
EXPONENTS = sorted({Fraction(e) for e in range(-3, 5)}
                   | {Fraction(s * n, d) for s in (-1, 1) for n in (1, 5) for d in (2, 3)})


def random_poly(rng, terms: int, max_digits: int = 12) -> dict:
    """A numeral with exactly ``terms`` terms and coefficients of up to ``max_digits`` digits."""
    poly = {}
    for e in rng.sample(EXPONENTS, terms):
        digits = rng.randint(1, max_digits)
        c = Fraction(rng.randint(10 ** (digits - 1), 10**digits - 1))
        if rng.random() < 0.25:
            c /= rng.randint(2, 999)
        poly[e] = c * rng.choice((-1, 1))
    return poly


def _term_text(rng, e: Fraction, c: Fraction) -> str:
    coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if e == 0:
        return coeff
    unit = rng.choice(("①", "G1"))
    if e == 1 and rng.random() < 0.5:
        power = ""
    elif e.denominator == 1 and (e >= 0 or rng.random() < 0.5):
        power = f"^{e.numerator}"
    else:
        power = f"^({e.numerator}/{e.denominator})" if e.denominator != 1 else f"^({e.numerator})"
    if c == 1 and rng.random() < 0.5:
        return unit + power
    return coeff + rng.choice(("", "*")) + unit + power


def render_poly(rng, poly: dict) -> str:
    """Text in the numeral grammar, terms in random order and spellings."""
    items = list(poly.items())
    rng.shuffle(items)
    chunks = []
    for e, c in items:
        body = _term_text(rng, e, abs(c))
        if not chunks:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append((" - " if c < 0 else " + ") + body)
    return "".join(chunks)


class NumeralMix:
    """Parse two numerals, then add, mul, cmp, div_exact(x*y, y), format."""

    name = "numeral-mix"
    trace_cycles = 4

    def build(self, g, rng, tiny=False, census=False):
        if census:
            counts = (6, 2, 2) if tiny else (36, 4, 2)
        else:
            counts = (8, 2, 2) if tiny else (360, 24, 16)
        ops = []
        # Every pairing of term counts 1..6 equally often, so that seeds
        # change the numerals but not the amount of arithmetic.
        for i in range(counts[0]):
            px, py = random_poly(rng, 1 + i % 6), random_poly(rng, 1 + i // 6 % 6)
            ops.append(("num", render_poly(rng, px), render_poly(rng, py), px, py))
        for i in range(counts[1]):
            k = rng.choice((2, 3))
            if i % 2 == 0:
                kappa = rng.randint(1, 10**12)
                d = g.define_by_inverse(g.Pow(k), g.finite(kappa))
                ops.append(("resolve", d, o.iroot(kappa, k)))
            elif rng.random() < 0.5:
                kappa = rng.randint(1, 10**12)
                root = o.iroot(kappa, k)
                probe = max(1, root + rng.randint(-1, 1))
                d = g.define_by_inverse(g.Pow(k), g.finite(kappa))
                ops.append(("cmp_defined", d, g.finite(probe), (root > probe) - (root < probe)))
            else:
                a, b = rng.randint(1, 99), rng.randint(0, 10**6)
                d = g.define_by_inverse(g.Pow(k), g.GROSSONE * a + b)
                if rng.random() < 0.5:
                    ops.append(("cmp_defined", d, g.finite(rng.randint(1, 10**9)), 1))
                else:
                    ops.append(("cmp_defined", d, g.GROSSONE, -1))
        for _ in range(counts[2]):
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            d = a if rng.random() < 0.2 else Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            ops.append(("halfplane", a, d))
        rng.shuffle(ops)
        return ops

    def run(self, call, g, op):
        kind = op[0]
        if kind == "num":
            x = call("gnum.parse_numeral", g.parse_numeral, op[1])
            y = call("gnum.parse_numeral", g.parse_numeral, op[2])
            total = call("gnum.add", g.add, x, y)
            product = call("gnum.mul", g.mul, x, y)
            sign = call("gnum.cmp", g.cmp, x, y)
            quotient = call("gnum.div_exact", g.div_exact, product, y)
            text = call("gnum.format_numeral", g.format_numeral, product)
            return [x, y, total, product, sign, quotient, text]
        if kind == "resolve":
            return call("derived.resolve_finite", g.resolve_finite, op[1])
        if kind == "cmp_defined":
            return call("derived.cmp_defined", g.cmp_defined, op[1], op[2])
        return call("geometry.halfplane_demo", g.halfplane_demo, op[1], op[2])

    def check(self, g, op, result) -> bool:
        kind = op[0]
        if kind == "num":
            px, py = op[3], op[4]
            x, y, total, product, sign, quotient, text = result
            want_product = o.poly_mul(px, py)
            return (
                o.poly_of(x) == px
                and o.poly_of(y) == py
                and o.poly_of(total) == o.poly_add(px, py)
                and o.poly_of(product) == want_product
                and int(sign) == o.poly_sign(o.poly_add(px, o.poly_neg(py)))
                and o.poly_of(quotient) == px
                and o.poly_of(g.parse_numeral(text)) == want_product
            )
        if kind == "resolve":
            return o.poly_of(result) == o.const(op[2])
        if kind == "cmp_defined":
            return result is not g.INCOMPARABLE and int(result) == op[3]
        a, d = op[1], op[2]
        return (
            result.subset == (a == d)
            and o.poly_of(result.uncovered) == o.const(2 * abs(a - d))
            and result.classical_subset == (d <= a)
        )

    def corrupt(self, g, op, result):
        return [result[1], result[0]] + result[2:] if op[0] == "num" else None


# ---------------------------------------------------------------------- sets


def random_parts(rng, n: int, symbolic: bool, start: int = 1):
    """Exactly n parts: n (or n-1 and a tail to ① - gap) finite runs.

    Returns (finite (lo, hi) pairs, tail_lo, tail_gap); tail_lo is None for
    a finite set.  Gaps of at least 2 keep parts from merging.
    """
    pairs = []
    x = start + rng.randint(0, 4)
    for _ in range(n - 1 if symbolic else n):
        hi = x + rng.randint(0, 6)
        pairs.append((x, hi))
        x = hi + rng.randint(2, 7)
    if not symbolic:
        return pairs, None, None
    return pairs, x, rng.randint(0, 5)


def make_interval_set(g, pairs, tail_lo, tail_gap):
    parts = [g.interval(lo, hi) for lo, hi in pairs]
    if tail_lo is not None:
        parts.append(g.interval(tail_lo, g.GROSSONE - tail_gap))
    return g.make_set(parts)


class SetAlgebra:
    """Each pair: intersect, difference, union, is_subset, cardinality, contains."""

    name = "set-algebra"
    trace_cycles = 1
    PROBES = 16

    def build(self, g, rng, tiny=False, census=False):
        sizes = _sizes(tiny)
        if census:
            plan = [("n10", 1), ("n100", 1), ("n300", 1)]
        else:
            # 300-part pairs take seconds each at the seed commit, too few
            # to time steadily in one run: the traced census times them.
            plan = [("n100", 3), ("n10", 4 if tiny else 100)]
        ops = []
        for size_class, count in plan:
            for i in range(count):
                symbolic = i % 2 == 0
                sides = []
                for _ in range(2):
                    pairs, tail_lo, gap = random_parts(rng, sizes[size_class], symbolic)
                    s = make_interval_set(g, pairs, tail_lo, gap)
                    sides.append((s, o.TailSet(pairs, tail_lo, gap) if symbolic else o.finite_model(pairs)))
                # One probe in each of PROBES equal slices of the range, so
                # that the linear scans in contains cost the same for every seed.
                top = sides[0][0].parts[-1].lo.as_int() + 3
                probes = [(int((j + rng.random()) * top / self.PROBES), None) for j in range(self.PROBES)]
                if symbolic:
                    probes[::4] = [(None, rng.randint(-2, 8)) for _ in probes[::4]]
                values = [g.finite(v) if k is None else g.GROSSONE - k for v, k in probes]
                ops.append(("pair", size_class, sides[0], sides[1], probes, values))
        rng.shuffle(ops)
        return ops

    def run(self, call, g, op):
        _, c, (a, _), (b, _), _, values = op
        inter = call(f"sets.intersect.{c}", g.intersect, a, b)
        diff = call(f"sets.difference.{c}", g.difference, a, b)
        union = call(f"sets.union.{c}", g.union, a, b)
        subset = call(f"sets.is_subset.{c}", g.is_subset, a, b)
        cards = [call("sets.cardinality", g.cardinality, s) for s in (a, b, inter, union)]
        hits = [call("sets.contains", g.contains, a, v) for v in values]
        return [inter, diff, union, subset, cards, hits]

    def check(self, g, op, result) -> bool:
        _, _, (a, ma), (b, mb), probes, _ = op
        inter, diff, union, subset, cards, hits = result
        card_a, card_b, card_i, card_u = (o.poly_of(c) for c in cards)
        if isinstance(ma, set):
            return (
                o.model_of(inter) == ma & mb
                and o.model_of(diff) == ma - mb
                and o.model_of(union) == ma | mb
                and subset == (ma <= mb)
                and [card_a, card_b, card_i, card_u]
                == [o.const(len(m)) for m in (ma, mb, ma & mb, ma | mb)]
                and hits == [v in ma for v, _ in probes]
            )
        want_hits = [ma.contains_finite(v) if k is None else ma.contains_near_gross(k) for v, k in probes]
        return (
            card_a == ma.card()
            and card_b == mb.card()
            and o.poly_add(card_u, card_i) == o.poly_add(card_a, card_b)
            and g.union(diff, inter) == a
            and subset == (inter == a)
            and hits == want_hits
        )

    def corrupt(self, g, op, result):
        return [result[2], result[1], result[0]] + result[3:]


# --------------------------------------------------------------- measurements

#: (symbolic tail, wide scale) by position within a size class.
_SHAPES = ((True, False), (False, False), (True, True), (False, True))
_SYSTEMS = ("piraha", "finite:9:10", "gross:2:6:1")


class MeasureRoundtrip:
    """Measure a set, round-trip it through text and JSON, gate it, concat, transport."""

    name = "measure-roundtrip"
    trace_cycles = 1

    def build(self, g, rng, tiny=False, census=False):
        sizes = _sizes(tiny)
        if census:
            plan = [("n10", 1), ("n100", 1), ("n1000", 1)]
        else:
            # A 1000-part set takes seconds at the seed commit, one sample per
            # run at most: the traced census times that size.
            plan = [("n100", 2), ("n10", 4 if tiny else 100)]
        systems = [g.parse_system(d) for d in _SYSTEMS]
        ops = []
        for size_class, count in plan:
            for i in range(count):
                symbolic, wide = _SHAPES[i % len(_SHAPES)]
                # Wide sets start past 10**6, beyond gross:2:6:1's six digits.
                start = 1_000_000 + rng.randint(0, 10**5) if wide else 1
                pairs, tail_lo, gap = random_parts(rng, sizes[size_class], symbolic, start)
                s = make_interval_set(g, pairs, tail_lo, gap)
                card = o.TailSet(pairs, tail_lo, gap).card() if symbolic else o.const(
                    len(o.finite_model(pairs)))
                # A partner of at most 3 parts among the negatives, disjoint from s.
                small_pairs, x = [], -rng.randint(30, 60)
                for _ in range(rng.randint(1, 3)):
                    small_pairs.append((x, x + rng.randint(0, 3)))
                    x = small_pairs[-1][1] + rng.randint(2, 5)
                small = make_interval_set(g, small_pairs, None, None)
                hull = g.convex_hull(s).parts[0]
                shift = rng.randint(1, 50)
                ops.append({
                    "class": size_class,
                    "set": s,
                    "card": card,
                    "admit": (False, not symbolic, not wide),
                    "small": g.canonical_measurement(small),
                    "small_card": o.const(len(o.finite_model(small_pairs))),
                    "hull": g.canonical_measurement(g.IntervalSet((hull,))),
                    "shift": shift,
                    "bijection": [g.AffinePiece(hull, g.finite(shift))],
                    "systems": systems,
                })
        rng.shuffle(ops)
        return ops

    def run(self, call, g, op):
        c, ms = op["class"], g.measure
        m = call(f"measure.canonical_measurement.{c}", g.canonical_measurement, op["set"])
        text = call(f"measure.to_text.{c}", ms.to_text, m)
        from_text = call(f"measure.from_text.{c}", ms.from_text, text)
        blob = call(f"measure.to_json.{c}", ms.to_json, m)
        from_json = call(f"measure.from_json.{c}", ms.from_json, blob)
        admitted = []
        for system in op["systems"]:
            try:
                call("numeral_system.measure_in", g.measure_in, system, op["set"])
                admitted.append(True)
            except g.NotExpressible:
                admitted.append(False)
        joined = call("measure.concat", g.concat, m, op["small"])
        moved = call("measure.transport", g.transport, op["hull"], op["bijection"])
        return [m, from_text, from_json, tuple(admitted), joined, moved]

    def check(self, g, op, result) -> bool:
        m, from_text, from_json, admitted, joined, moved = result
        s, hull = op["set"], op["hull"].target.parts[0]
        moved_part = moved.target.parts
        return (
            o.poly_of(m.mu) == op["card"]
            and len(m.pieces) == len(s.parts)
            and m.target == s
            and from_text == m
            and from_json == m
            and admitted == op["admit"]
            and o.poly_of(joined.mu) == o.poly_add(op["card"], op["small_card"])
            and joined.target.parts == op["small"].target.parts + s.parts
            and moved.mu == op["hull"].mu
            and len(moved_part) == 1
            and o.poly_of(moved_part[0].lo) == o.poly_add(o.poly_of(hull.lo), o.const(op["shift"]))
            and o.poly_of(moved_part[0].hi) == o.poly_add(o.poly_of(hull.hi), o.const(op["shift"]))
        )

    def corrupt(self, g, op, result):
        return [result[0], op["small"]] + result[2:]


# ------------------------------------------------------------------------ cli


def _small_poly(rng) -> dict:
    return random_poly(rng, rng.randint(1, 3), max_digits=4)


def _numeral(g, text: str):
    return o.poly_of(g.parse_numeral(text))


def cli_specs(rng) -> list:
    """One cycle of README verbs: (argv, expected exit, check(g, output))."""
    specs = []
    for fmt in ("text", "json"):

        def add(argv, code, check):
            specs.append((argv[:1] + ["--format", fmt] + argv[1:], code, check))

        p = _small_poly(rng)
        add(["eval", "--", render_poly(rng, p)], 0,
            lambda g, r, p=p: _numeral(g, _field(r, "value")) == p)

        pairs, tail_lo, gap = random_parts(rng, rng.randint(1, 4), rng.random() < 0.5)
        expr = "|".join(f"[{lo}..{hi}]" for lo, hi in pairs)
        if tail_lo is not None:
            expr += f"|[{tail_lo}..G1-{gap}]"
            count = o.TailSet(pairs, tail_lo, gap).card()
        else:
            count = o.const(len(o.finite_model(pairs)))
        add(["card", "--", expr.lstrip("|")], 0,
            lambda g, r, c=count: _numeral(g, _field(r, "cardinality")) == c)
        add(["measure", "--", expr.lstrip("|")], 0,
            lambda g, r, c=count: o.poly_of(_measurement(g, r).mu) == c)

        left, right = _small_poly(rng), _small_poly(rng)
        word = ("zero", "positive", "negative")[o.poly_sign(o.poly_add(left, o.poly_neg(right)))]
        add(["cmp", "--", render_poly(rng, left), render_poly(rng, right)], 0,
            lambda g, r, w=word: _field(r, "sign") == w)

        elements = sorted(rng.sample(range(1, 5), rng.randint(1, 3)))
        if set(elements) <= {1, 2}:
            check = lambda g, r, n=len(elements): o.poly_of(_measurement(g, r).mu) == o.const(n)
        else:
            check = _error_is("NotExpressible")
        add(["measure", "{" + ",".join(map(str, elements)) + "}", "--system", "piraha"],
            0 if set(elements) <= {1, 2} else 1, check)

        digits = rng.randint(1, 6)
        if fmt == "text":
            probe = rng.randint(1, 2 * 10**digits)
            add(["system", f"finite:{digits}:10", "expressible", str(probe)], 0,
                lambda g, r, ok=probe < 10**digits: r[-1] == ("true" if ok else "false"))
        else:
            largest = 10**digits - 1
            least = o.poly_add({Fraction(1): Fraction(1, largest)}, o.const(-largest))
            add(["system", f"gross:2:{digits}:1", "min-infinite"], 0,
                lambda g, r, w=least: _numeral(g, r["min_infinite"]) == w)
            add(["system", f"finite:{digits}:10", "min-infinite"], 1, _error_is("NoInfiniteNumerals"))

        kappa = rng.randint(1, 10**9)
        add(["define", f"sqrtfloor({kappa})"], 0,
            lambda g, r, w=o.const(isqrt(kappa)): _numeral(g, _field(r, "resolved")) == w)

        a, d = rng.randint(-9, 9), rng.randint(-9, 9)
        add(["demo", "halfplane", "--a", str(a), "--d", str(d)], 0,
            lambda g, r, u=o.const(2 * abs(a - d)): _numeral(g, _field(r, "uncovered")) == u)

        add(["eval", "--", f"{rng.randint(2, 99)}①+"], 2, _error_is("ParseError"))
    return specs


def _field(r, key: str) -> str:
    """A JSON result field, or the text line that carries it."""
    if isinstance(r, dict):
        return r[key]
    if key == "uncovered":
        return next(line.split()[1] for line in r if line.startswith("uncovered "))
    return r[-1]


def _measurement(g, r):
    if isinstance(r, dict):
        return g.measure.from_jsonable(r["measurement"])
    return g.measure.from_text("\n".join(r) + "\n")


def _error_is(kind: str):
    return lambda g, r: not isinstance(r, dict) or r.get("type") == kind


def _load_validator():
    import jsonschema

    schema = json.loads((SRC / "grossone" / "schemas" / "envelope.json").read_text(encoding="utf-8"))
    return jsonschema.Draft7Validator(schema)


class CliOneshot:
    """One ``python -m grossone`` process at a time over a seeded verb mix."""

    name = "cli-oneshot"
    trace_cycles = 1
    PROBE_REPEATS = 5

    def __init__(self):
        self.env = dict(os.environ, PYTHONIOENCODING="utf-8")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.validator = None

    def build(self, g, rng, tiny=False, census=False):
        specs = cli_specs(rng)
        if tiny:
            specs = specs[::4]
        if not census:
            return [("process", s) for s in specs]
        importlib.import_module("grossone.cli")
        repeats = 2 if tiny else self.PROBE_REPEATS
        return [("floor",)] * repeats + [("import",)] * repeats + [("main", s) for s in specs]

    def _spawn(self, argv):
        return subprocess.run([sys.executable, *argv], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, encoding="utf-8", timeout=120)

    def run(self, call, g, op):
        kind = op[0]
        if kind == "floor":
            return call("cli.spawn_floor", self._spawn, ["-c", "pass"])
        if kind == "import":
            return call("cli.import", self._spawn, ["-c", "import grossone.cli"])
        argv = op[1][0]
        if kind == "process":
            proc = call("cli.process", self._spawn, ["-m", "grossone", *argv])
            return proc.returncode, proc.stdout
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call("cli.main", g.cli.main, argv)
        return code, out.getvalue()

    def check(self, g, op, result) -> bool:
        if op[0] in ("floor", "import"):
            return result.returncode == 0
        argv, want_code, check = op[1]
        code, stdout = result
        if code != want_code:
            return False
        if "json" not in argv:
            body = stdout.splitlines()
            return check(g, body) if code == 0 else not body
        if self.validator is None:
            self.validator = _load_validator()
        envelope = json.loads(stdout)
        if not self.validator.is_valid(envelope):
            return False
        return check(g, envelope["result"] if code == 0 else envelope["error"])

    def corrupt(self, g, op, result):
        return None


WORKLOADS = {w.name: w for w in (NumeralMix(), SetAlgebra(), MeasureRoundtrip(), CliOneshot())}
