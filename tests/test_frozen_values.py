"""Value objects refuse assignment and deletion of their fields.

"A Measurement in hand is a bijection" and "an IntervalSet is canonical"
hold only because nothing can change a value after its constructor has
checked it.  Every value class of the package is listed here, found by
reading the source, so that a new one cannot go untested.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from grossone.derived import Affine, DefinedNumeral, ExpBase, Pow
from grossone.geometry import ClassicalInterval, ClassicalStrip, RealInterval, Strip, Unbounded, halfplane_demo
from grossone.gnum import GROSSONE, classify
from grossone.measure import canonical_measurement
from grossone.numeral_system import BoundedFinite, GrossBudget, Piraha
from grossone.sets import interval, make_set

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"


def value_classes() -> dict[str, tuple[str, ...]]:
    """``module.Class`` -> field names, for each class the source declares frozen."""
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, ast.ClassDef) and any("frozen=True" in ast.unparse(d) for d in node.decorator_list):
                fields = tuple(
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
                found[f"{path.stem}.{node.name}"] = fields
    return found


CLASSES = value_classes()
set_ = make_set([interval(1, 3), interval(10, GROSSONE)])
measurement = canonical_measurement(set_)
strip = Strip(RealInterval(0, 1), RealInterval(0, GROSSONE))
classical = ClassicalInterval(Fraction(0), Unbounded.ABOVE)

SAMPLES = {
    "gnum.NumberClass": classify(GROSSONE),
    "gnum.GrossNumber": GROSSONE + 1,
    "sets.GrossInterval": interval(1, GROSSONE),
    "sets.IntervalSet": set_,
    "measure.AffinePiece": measurement.pieces[-1],
    "measure.Measurement": measurement,
    "numeral_system.Piraha": Piraha(),
    "numeral_system.BoundedFinite": BoundedFinite(3),
    "numeral_system.GrossBudget": GrossBudget(2, 3, 1),
    "derived.Pow": Pow(2),
    "derived.ExpBase": ExpBase(2),
    "derived.Affine": Affine(2, 1),
    "derived.DefinedNumeral": DefinedNumeral(Pow(2), GROSSONE),
    "geometry.RealInterval": RealInterval(0, GROSSONE),
    "geometry.Strip": strip,
    "geometry.ClassicalInterval": classical,
    "geometry.ClassicalStrip": ClassicalStrip(classical, classical),
    "geometry.HalfPlaneReport": halfplane_demo(1, 2),
}


def test_every_value_class_has_a_sample():
    assert len(CLASSES) == 18
    assert sorted(CLASSES) == sorted(SAMPLES)
    for name, sample in SAMPLES.items():
        assert type(sample).__name__ == name.split(".")[1]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_value_refuses_assignment_and_deletion(name):
    value = SAMPLES[name]
    before = repr(value)
    # A class without fields must still refuse a new attribute.
    for field in CLASSES[name] or ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == before
