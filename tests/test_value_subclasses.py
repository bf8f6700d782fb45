"""A subclass of a value class keeps its base's fields and checks.

The value base collects fields as a dataclass does: the bases' fields
first, then the names the subclass adds.  So a subclass that adds a field
still sets, checks, compares, hashes, shows and pickles the inherited ones,
and its constructor still runs the inherited ``__post_init__``.  A private
slot that a class declares in ``__slots__`` is no field: no constructor
sets it, and equality, hashing, ``repr``, pickling and copying ignore it.
An ``IntervalSet`` subclass may add fields but not a ``__post_init__`` of
its own or a mixin's, which would replace the canonical check and the order
keys that every set operation trusts, even where a mixin's
``__init_subclass__`` skips its bases' hooks; its constructor runs that check
even when a mixin gains a ``__post_init__`` after the class is made.  A
``Measurement`` subclass is held to the same rule, since the writers read the
runs its bijection check holds.
"""

import copy
import pickle

import pytest

from grossone.errors import EmptyIntervalRejected, InvalidArgument, InvalidMeasurement
from grossone.gnum import _Value, finite
from grossone.measure import Measurement, _run, canonical_measurement, to_json, to_text
from grossone.numeral_system import BoundedFinite
from grossone.sets import GrossInterval, IntervalSet, contains, parse_set_expression, union


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


# ---------------------------------------------------------------- private slots


class Memoised(_Value):
    """A value class with a private slot beside its two fields."""

    __slots__ = ("_memo",)

    a: int
    b: int = 0


def memoised(a, b, memo):
    value = Memoised(a, b)
    Memoised._memo.__set__(value, memo)
    return value


def test_a_private_slot_is_no_field():
    assert Memoised.__match_args__ == ("a", "b")
    assert Memoised(1, 2)._values() == (1, 2)
    with pytest.raises(TypeError, match="unexpected keyword argument '_memo'"):
        Memoised(1, 2, _memo=3)
    with pytest.raises(AttributeError):
        Memoised(1)._memo = 3


def test_a_private_slot_is_unset_after_the_constructor_and_trusted():
    for value in (Memoised(1, 2), Memoised._trusted(1, 2)):
        assert not hasattr(value, "_memo")
        assert value == Memoised(1, 2)


def test_equality_hash_repr_pickle_and_copy_ignore_a_private_slot():
    value, other = memoised(1, 2, "x"), memoised(1, 2, "y")
    assert value == other == Memoised(1, 2)
    assert hash(value) == hash(other) == hash(Memoised(1, 2))
    assert repr(value) == "Memoised(a=1, b=2)"
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in [*copies, copy.copy(value), copy.deepcopy(value)]:
        assert type(copied) is Memoised and copied == value
        assert not hasattr(copied, "_memo")


def test_a_subclass_inherits_a_private_slot_but_not_as_a_field():
    class Wider(Memoised):
        c: int = 0

    value = Wider(1, 2, 3)
    assert Wider.__match_args__ == ("a", "b", "c")
    Memoised._memo.__set__(value, "x")
    assert value == Wider(1, 2, 3) and repr(value) == repr(Wider(1, 2, 3))


# ---------------------------------------------------------------- interval sets


def test_an_interval_set_subclass_may_not_replace_the_canonical_check():
    with pytest.raises(TypeError, match="^IntervalSet subclass Loose may not replace IntervalSet.__post_init__: "):

        class Loose(IntervalSet):
            def __post_init__(self):
                pass

    with pytest.raises(TypeError, match="^IntervalSet subclass Checked may not replace IntervalSet.__post_init__: "):

        class Checked(IntervalSet):
            def __post_init__(self):
                super().__post_init__()

    # A __post_init__ inherited from a mixin would run in place of the base's just the same.
    class Mixin:
        def __post_init__(self):
            pass

    with pytest.raises(TypeError, match="^IntervalSet subclass Mixed may not replace IntervalSet.__post_init__: "):

        class Mixed(Mixin, IntervalSet):
            pass


def test_a_mixin_that_skips_init_subclass_does_not_skip_the_refusal():
    # This __init_subclass__ calls no super(), so no base's hook runs for Bad.
    class Quiet:
        def __init_subclass__(cls):
            pass

    with pytest.raises(TypeError, match="^IntervalSet subclass Bad may not replace IntervalSet.__post_init__: "):

        class Bad(Quiet, IntervalSet):
            def __post_init__(self):
                pass

    class Fine(Quiet, IntervalSet):
        pass

    s = Fine((GrossInterval(1, 2),))
    assert union(s, s) == IntervalSet(s.parts)
    with pytest.raises(InvalidArgument):
        Fine((GrossInterval(5, 6), GrossInterval(1, 2)))


def test_an_interval_set_subclass_without_its_own_check_holds_keys():
    class Named(IntervalSet):
        name: str = ""

    class Plain(Named):
        pass

    s = Plain((GrossInterval(1, 2), GrossInterval(5, 6)), "s")
    assert union(s, s) == IntervalSet(s.parts)
    assert contains(s, 5) and not contains(s, 3)
    with pytest.raises(InvalidArgument):
        Plain((GrossInterval(5, 6), GrossInterval(1, 2)))


def test_a_check_given_to_a_mixin_after_the_set_class_exists_is_not_run():
    class Mixin:
        pass

    class Late(Mixin, IntervalSet):
        pass

    # Mixin is no set class, so this assignment is not refused; the constructor
    # still runs the check the class was created with.
    Mixin.__post_init__ = lambda self: None
    s = Late((GrossInterval(1, 2),))
    assert union(s, s) == IntervalSet(s.parts)
    assert contains(s, 2) and not contains(s, 3)
    with pytest.raises(InvalidArgument):
        Late((GrossInterval(5, 6), GrossInterval(1, 2)))


# ---------------------------------------------------------------- measurements


def measured(expression="[-3..4]|[10..①]"):
    return canonical_measurement(parse_set_expression(expression))


def test_a_measurement_subclass_may_not_replace_the_bijection_check():
    with pytest.raises(TypeError, match="^Measurement subclass Loose may not replace Measurement.__post_init__: "):

        class Loose(Measurement):
            def __post_init__(self):
                pass

    class Mixin:
        def __post_init__(self):
            pass

    with pytest.raises(TypeError, match="^Measurement subclass Mixed may not replace Measurement.__post_init__: "):

        class Mixed(Mixin, Measurement):
            pass


def test_a_measurement_subclass_inheriting_the_check_holds_runs():
    class Named(Measurement):
        name: str = ""

    m = measured()
    named = Named(m.mu, m.pieces, m.target, "n")
    assert named._runs == tuple(map(_run, m.pieces))
    assert (to_text(named), to_json(named)) == (to_text(m), to_json(m))
    with pytest.raises(InvalidMeasurement):
        Named(m.mu + 1, m.pieces, m.target)


def test_equality_hash_repr_pickle_and_copy_ignore_the_held_runs():
    m = measured()
    odd = Measurement._trusted(m.mu, m.pieces, m.target)
    Measurement._runs.__set__(odd, ("not", "runs"))
    assert odd == m and hash(odd) == hash(m) and repr(odd) == repr(m)
    copies = [pickle.loads(pickle.dumps(odd, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in [*copies, copy.copy(odd), copy.deepcopy(odd)]:
        # Rebuilt through the constructor, which holds the pieces' own runs.
        assert type(copied) is Measurement and copied == m
        assert copied._runs == tuple(map(_run, m.pieces))
