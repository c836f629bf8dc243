"""Linkable objects and variables: state access, verifiers, bubbling, dispose."""

import pytest

from linkstate.callbacks import FrameScheduler
from linkstate.errors import CycleDetected, Disposed, DuplicateName, TypeMismatch
from linkstate.linkable import (
    LinkableBoolean,
    LinkableNumber,
    LinkableObject,
    LinkableString,
    LinkableVariable,
)


def test_variable_default_and_roundtrip():
    v = LinkableVariable()
    assert v.get_state() is None
    v.set_state({"a": 1})
    assert v.get_state() == {"a": 1}

    w = LinkableVariable(default=[1, 2])
    assert w.get_state() == [1, 2]


def test_variable_state_copies_are_isolated():
    v = LinkableVariable(default={"a": [1]})
    out = v.get_state()
    out["a"].append(2)
    assert v.get_state() == {"a": [1]}


def test_variable_triggers_only_on_change():
    v = LinkableVariable(default=1)
    v.set_state(2)
    after_change = v.callbacks.trigger_counter
    v.set_state(2)
    v.set_state(2.0)  # equivalent number, no trigger
    assert v.callbacks.trigger_counter == after_change


def test_verifier_rejection_is_silent_and_flagged():
    v = LinkableVariable(default=0, verifier=lambda x: x is None or x >= 0)
    v.set_state(5)
    assert not v.last_verify_failed
    count = v.callbacks.trigger_counter
    v.set_state(-3)
    assert v.get_state() == 5
    assert v.last_verify_failed
    assert v.callbacks.trigger_counter == count
    v.set_state(7)
    assert not v.last_verify_failed
    assert v.get_state() == 7


def test_a_value_that_is_no_state_tree_is_dropped_and_flagged():
    v = LinkableVariable(default=1)
    count = v.callbacks.trigger_counter
    v.set_state(float("nan"))
    assert v.get_state() == 1
    assert v.last_verify_failed
    assert v.callbacks.trigger_counter == count


def test_bad_default_raises_at_construction():
    with pytest.raises(ValueError):
        LinkableVariable(default=-1, verifier=lambda x: x is None or x >= 0)


def test_a_default_is_verified_as_the_value_a_set_would_store():
    # The verifier reads the canonical value at construction, as it does
    # for set_state: 5.0 is stored as 5 either way.
    ints = lambda x: type(x) is int  # noqa: E731
    v = LinkableNumber(default=5.0, verifier=ints)
    assert type(v.get_state()) is int and v.get_state() == 5
    w = LinkableNumber(default=1, verifier=ints)
    w.set_state(5.0)
    assert not w.last_verify_failed and type(w.get_state()) is int
    floats = lambda x: type(x) is float  # noqa: E731
    with pytest.raises(ValueError):
        LinkableNumber(default=5.0, verifier=floats)
    f = LinkableNumber(default=0.5, verifier=floats)
    f.set_state(5.0)
    assert f.last_verify_failed and f.get_state() == 0.5


def test_typed_variables():
    s = LinkableString(default="hi")
    s.set_state(42)
    assert s.get_state() == "hi" and s.last_verify_failed
    s.set_state(None)  # null is always admissible
    assert s.get_state() is None and not s.last_verify_failed

    n = LinkableNumber(default=1)
    n.set_state(True)  # bool is not a number
    assert n.get_state() == 1 and n.last_verify_failed
    n.set_state(2.5)
    assert n.get_state() == 2.5

    b = LinkableBoolean()
    b.set_state(1)
    assert b.get_state() is None and b.last_verify_failed
    b.set_state(True)
    assert b.get_state() is True


def test_check_value_raises():
    n = LinkableNumber()
    with pytest.raises(TypeMismatch):
        n.check_value("nope")
    n.check_value(3)


def test_mapping_valued_variable_merges():
    v = LinkableVariable(default={"a": 1, "b": 2})
    v.set_state({"b": 3})
    assert v.get_state() == {"a": 1, "b": 3}
    v.set_state({"a": {"__removed__": True}})
    assert v.get_state() == {"b": 3}
    v.set_state({"__value__": {"fresh": True}})
    assert v.get_state() == {"fresh": True}
    v.set_state("scalar")
    assert v.get_state() == "scalar"


def test_composite_state_is_mapping_of_children():
    obj = LinkableObject()
    obj.register_linkable_child("title", LinkableString(default="t"))
    obj.register_linkable_child("size", LinkableNumber(default=5))
    assert obj.get_session_state() == {"title": "t", "size": 5}


def test_register_returns_child_and_triggers_parent():
    obj = LinkableObject()
    before = obj.callbacks.trigger_counter
    child = obj.register_linkable_child("x", LinkableNumber(default=0))
    assert isinstance(child, LinkableNumber)
    assert obj.callbacks.trigger_counter == before + 1


def test_duplicate_child_name_rejected():
    obj = LinkableObject()
    obj.register_linkable_child("x", LinkableNumber())
    with pytest.raises(DuplicateName):
        obj.register_linkable_child("x", LinkableNumber())


def test_an_empty_child_name_is_rejected():
    with pytest.raises(ValueError):
        LinkableObject().register_linkable_child("", LinkableNumber())


def test_a_child_name_that_is_no_string_is_rejected():
    with pytest.raises(ValueError):
        LinkableObject().register_linkable_child(5, LinkableNumber())


def test_a_child_registered_under_two_names_of_one_parent_bubbles_once_and_is_disposed_once():
    obj = LinkableObject()
    v = obj.register_linkable_child("x", LinkableNumber(default=1))
    obj.register_linkable_child("y", v)
    before = obj.callbacks.trigger_counter
    v.set_state(2)
    assert obj.callbacks.trigger_counter == before + 1
    assert obj.get_session_state() == {"x": 2, "y": 2}
    obj.dispose()
    assert v.disposed and v._parents == []


def test_a_child_shared_by_two_parents_closes_no_cycle():
    top, a, b, shared = (LinkableObject() for _ in range(4))
    top.register_linkable_child("a", a)
    top.register_linkable_child("b", b)
    a.register_linkable_child("s", shared)
    b.register_linkable_child("s", shared)
    holder = LinkableObject()
    assert holder.register_linkable_child("top", top) is top  # the walk meets shared twice
    with pytest.raises(CycleDetected):
        shared.register_linkable_child("top", top)


def test_cycle_detection():
    a = LinkableObject()
    b = LinkableObject()
    a.register_linkable_child("b", b)
    with pytest.raises(CycleDetected):
        b.register_linkable_child("a", a)
    with pytest.raises(CycleDetected):
        a.register_linkable_child("self", a)


def test_child_triggers_bubble_to_parent():
    obj = LinkableObject()
    v = obj.register_linkable_child("v", LinkableNumber(default=0))
    before = obj.callbacks.trigger_counter
    v.set_state(1)
    assert obj.callbacks.trigger_counter == before + 1


def test_partial_state_updates_only_mentioned_children():
    obj = LinkableObject()
    obj.register_linkable_child("title", LinkableString(default="a"))
    obj.register_linkable_child("size", LinkableNumber(default=1))
    obj.set_session_state({"size": 2})
    assert obj.get_session_state() == {"title": "a", "size": 2}


def test_unknown_keys_and_non_mapping_states_ignored():
    obj = LinkableObject()
    obj.register_linkable_child("x", LinkableNumber(default=1))
    obj.set_session_state({"ghost": 5})
    obj.set_session_state("scalar")
    obj.set_session_state([1, 2])
    assert obj.get_session_state() == {"x": 1}


def test_composite_apply_is_one_effective_trigger():
    obj = LinkableObject()
    obj.register_linkable_child("a", LinkableNumber(default=0))
    obj.register_linkable_child("b", LinkableNumber(default=0))
    before = obj.callbacks.trigger_counter
    obj.set_session_state({"a": 1, "b": 2})
    assert obj.callbacks.trigger_counter == before + 1


def test_reapplying_own_state_triggers_nothing():
    obj = LinkableObject()
    obj.register_linkable_child("a", LinkableNumber(default=3))
    obj.register_linkable_child("b", LinkableString(default="s"))
    snap = obj.get_session_state()
    before = obj.callbacks.trigger_counter
    obj.set_session_state(snap)
    assert obj.callbacks.trigger_counter == before


def test_registration_adopts_parent_scheduler():
    sched = FrameScheduler()
    parent = LinkableObject(sched)
    child = LinkableObject()
    grand = child.register_linkable_child("g", LinkableNumber())
    parent.register_linkable_child("c", child)
    assert child.callbacks.scheduler is sched
    assert grand.callbacks.scheduler is sched


def test_dispose_cascades_and_guards():
    obj = LinkableObject()
    v = obj.register_linkable_child("v", LinkableNumber(default=1))
    obj.dispose()
    assert obj.disposed and v.disposed
    assert v._value is None  # storage dropped on dispose
    with pytest.raises(Disposed):
        obj.get_session_state()
    with pytest.raises(Disposed):
        v.set_state(2)
    obj.dispose()  # idempotent


def test_child_dispose_detaches_and_triggers_parent():
    obj = LinkableObject()
    v = obj.register_linkable_child("v", LinkableNumber(default=1))
    before = obj.callbacks.trigger_counter
    v.dispose()
    assert obj.get_session_state() == {}
    assert obj.callbacks.trigger_counter == before + 1
