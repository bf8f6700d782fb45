"""Value objects refuse assignment and deletion of their fields.

"A Measurement in hand is a bijection" and "an IntervalSet is canonical"
hold only because nothing can change a value after its constructor has
checked it.  Every value class of the package derives from the frozen value
base ``gnum._Value`` and is listed here, found by reading the source, so
that a new one cannot go untested.  Each also survives pickling, copying and
weak references, which a slotted class only gets from the base.
"""

import ast
import copy
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from grossone.derived import Affine, DefinedNumeral, ExpBase, Pow
from grossone.geometry import ClassicalInterval, ClassicalStrip, RealInterval, Strip, Unbounded, halfplane_demo
from grossone.gnum import GROSSONE, ZERO, GrossNumber, classify
from grossone.measure import canonical_measurement
from grossone.numeral_system import BoundedFinite, GrossBudget, Piraha
from grossone.sets import EMPTY, GrossInterval, IntervalSet, interval, make_set

SOURCE = Path(__file__).resolve().parent.parent / "src" / "grossone"


def value_classes() -> dict[str, tuple[str, ...]]:
    """``module.Class`` -> field names, for each class the source derives from the value base."""
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, ast.ClassDef) and any(ast.unparse(b) == "_Value" for b in node.bases):
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


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_value_survives_pickle_copy_and_deepcopy(name):
    value = SAMPLES[name]
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in [*pickled, copy.copy(value), copy.deepcopy(value)]:
        assert type(other) is type(value)
        assert other == value
        assert hash(other) == hash(value)
        assert repr(other) == repr(value)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_value_can_be_weakly_referenced(name):
    value = SAMPLES[name]
    ref = weakref.ref(value)
    assert ref() is value


def test_a_constructor_takes_fields_by_position_or_keyword_with_their_defaults():
    assert GrossNumber() == GrossNumber(terms=()) == ZERO
    assert IntervalSet() == IntervalSet(parts=()) == EMPTY
    assert BoundedFinite(digits=3) == BoundedFinite(3, 10) == BoundedFinite(base=10, digits=3)
    assert Affine(2) == Affine(a=2, c=0)
    assert GrossInterval(hi=3, lo=1) == interval(1, 3)
    with pytest.raises(TypeError, match=r"^GrossInterval\.__init__\(\) missing 1 required positional argument: 'hi'$"):
        GrossInterval(1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'z'"):
        Strip(RealInterval(0, 1), RealInterval(0, 1), z=1)
