"""A subclass of a value class keeps its base's fields and checks.

The value base collects fields as a dataclass does: the bases' fields
first, then the names the subclass adds.  So a subclass that adds a field
still sets, checks, compares, hashes, shows and pickles the inherited ones,
and its constructor still runs the inherited ``__post_init__``.
"""

import pickle

import pytest

from grossone.errors import EmptyIntervalRejected, InvalidArgument
from grossone.gnum import finite
from grossone.numeral_system import BoundedFinite
from grossone.sets import GrossInterval


class Labelled(BoundedFinite):
    """A system that adds one field to its base's two."""

    label: str = ""


def test_a_subclass_field_comes_after_the_inherited_ones():
    system = Labelled(3, label="three")
    assert (system.digits, system.base, system.label) == (3, 10, "three")
    assert Labelled(3, 2, "x") == Labelled(digits=3, base=2, label="x")
    assert repr(system) == "Labelled(digits=3, base=10, label='three')"
    assert system.describe() == "finite:3:10"
    assert system.can_express(finite(999)) and not system.can_express(finite(1000))
    with pytest.raises(AttributeError):
        system.digits = 4


def test_a_subclass_compares_hashes_and_pickles_on_every_field():
    system = Labelled(3, label="a")
    assert system != Labelled(4, label="a")
    assert system != Labelled(3, label="b")
    assert hash(system) == hash(Labelled(3, 10, "a"))
    assert system != BoundedFinite(3)
    assert pickle.loads(pickle.dumps(system)) == system


def test_a_subclass_runs_the_inherited_checks():
    with pytest.raises(InvalidArgument, match="^digits must be at least 1$"):
        Labelled(0, label="none")

    class Named(GrossInterval):
        name: str = ""

    with pytest.raises(EmptyIntervalRejected, match=r"^\[2\.\.1\] has no elements$"):
        Named(2, 1, "backwards")
    assert Named(1, 2, "n").lo == 1


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError, match="^Bad has a field without a default after one with a default$"):
        type("Bad", (BoundedFinite,), {"__annotations__": {"extra": int}})
