"""Dynamic objects: registry, hash map mutation-apply, local/global wrapper."""

import logging
import random

import pytest

import graphops
from treegen import entry
from linkstate.callbacks import FrameScheduler
from linkstate.demo import Counter, build_demo_registry
from linkstate.dynamic import ClassRegistry, LinkableDynamicObject, LinkableHashMap
from linkstate.errors import (
    Disposed,
    DuplicateClass,
    InvalidPermutation,
    NameRequired,
    NoRoot,
    UnknownClass,
    UnknownName,
)
from linkstate.linkable import LinkableObject
from linkstate.statetree import (
    apply_diff,
    diff,
    encode,
    state_equivalent,
)


def fresh_map():
    return LinkableHashMap(build_demo_registry())


# --- registry ------------------------------------------------------------------

def test_registry_register_and_create():
    reg = ClassRegistry()
    reg.register("ex.Counter", Counter)
    assert reg.has("ex.Counter")
    assert isinstance(reg.create("ex.Counter"), Counter)
    assert reg.class_names() == ["ex.Counter"]


def test_registry_duplicate_and_unknown():
    reg = ClassRegistry()
    reg.register("ex.Counter", Counter)
    with pytest.raises(DuplicateClass):
        reg.register("ex.Counter", Counter)
    with pytest.raises(UnknownClass):
        reg.create("ex.Nope")


# --- hash map basics --------------------------------------------------------------

def test_request_object_creates_with_defaults():
    m = fresh_map()
    obj = m.request_object("c1", "ex.Counter")
    assert m.get_names() == ["c1"]
    assert m.get_class_name("c1") == "ex.Counter"
    assert obj.get_session_state() == {"count": 0}


def test_request_object_same_class_is_idempotent():
    m = fresh_map()
    a = m.request_object("c1", "ex.Counter")
    count = m.callbacks.trigger_counter
    b = m.request_object("c1", "ex.Counter")
    assert a is b
    assert m.callbacks.trigger_counter == count


def test_request_object_class_change_recreates_in_place():
    m = fresh_map()
    m.request_object("a", "ex.Counter")
    old = m.request_object("b", "ex.Counter")
    m.request_object("c", "ex.Counter")
    new = m.request_object("b", "ex.Label")
    assert new is not old
    assert old.disposed
    assert m.get_names() == ["a", "b", "c"]
    assert m.get_class_name("b") == "ex.Label"


def test_request_object_requires_name_and_known_class():
    m = fresh_map()
    with pytest.raises(NameRequired):
        m.request_object("", "ex.Counter")
    with pytest.raises(UnknownClass):
        m.request_object("x", "ex.Nope")


def test_get_and_remove_unknown_name():
    m = fresh_map()
    with pytest.raises(UnknownName):
        m.get_object("ghost")
    with pytest.raises(UnknownName):
        m.remove_object("ghost")


def test_remove_object_disposes_entry():
    m = fresh_map()
    obj = m.request_object("x", "ex.Counter")
    m.remove_object("x")
    assert obj.disposed
    assert m.get_names() == []


def test_child_list_events_fire_per_add_and_remove():
    m = fresh_map()
    events = []
    m.child_list_callbacks.add_immediate_callback(
        lambda: events.append(
            ("add", m.last_object_added[0])
            if m.last_object_added
            else ("remove", m.last_object_removed[0])
        )
    )
    m.request_object("a", "ex.Counter")
    assert events == [("add", "a")]
    m.last_object_added = None
    m.remove_object("a")
    assert events == [("add", "a"), ("remove", "a")]


def test_a_hash_map_keeps_the_registry_it_was_built_with():
    registry = build_demo_registry()
    assert LinkableHashMap(registry).registry is registry


def test_dispose_disposes_the_entries_and_the_child_list_callbacks_once():
    m = fresh_map()
    obj = m.request_object("x", "ex.Counter")
    m.dispose()
    assert m.disposed and obj.disposed and m.child_list_callbacks.disposed
    m.dispose()  # a second dispose is a no-op
    with pytest.raises(Disposed):
        m.get_names()


def test_registering_under_a_parent_moves_the_child_list_callbacks_to_its_scheduler():
    own, parents = FrameScheduler(), FrameScheduler()
    parent = LinkableObject(parents)
    m = LinkableHashMap(build_demo_registry(), own)
    parent.register_linkable_child("map", m)
    assert m.scheduler is parents and m.child_list_callbacks.scheduler is parents
    seen = []
    m.child_list_callbacks.add_grouped_callback(lambda: seen.append(m.get_names()))
    m.request_object("x", "ex.Counter")
    own.flush_frame()
    assert seen == []
    parents.flush_frame()
    assert seen == [["x"]]


def test_set_name_order_listed_first_rest_stable():
    m = fresh_map()
    for n in ("a", "b", "c", "d"):
        m.request_object(n, "ex.Counter")
    m.set_name_order(["c", "a"])
    assert m.get_names() == ["c", "a", "b", "d"]


def test_set_name_order_rejects_bad_permutations():
    m = fresh_map()
    m.request_object("a", "ex.Counter")
    with pytest.raises(InvalidPermutation):
        m.set_name_order(["a", "a"])
    with pytest.raises(InvalidPermutation):
        m.set_name_order(["ghost"])


def test_set_name_order_no_change_no_trigger():
    m = fresh_map()
    m.request_object("a", "ex.Counter")
    m.request_object("b", "ex.Counter")
    count = m.callbacks.trigger_counter
    m.set_name_order(["a"])
    assert m.callbacks.trigger_counter == count


# --- hash map session state ----------------------------------------------------------

def test_map_state_is_entry_list_in_order():
    m = fresh_map()
    m.request_object("c", "ex.Counter").count.set_state(2)
    m.request_object("l", "ex.Label")
    state = m.get_session_state()
    assert state == [
        entry("c", "ex.Counter", {"count": 2}),
        entry("l", "ex.Label", {"text": "", "size": 12}),
    ]


def test_blank_slate_reconstruction_is_exact():
    m = fresh_map()
    m.request_object("c", "ex.Counter").count.set_state(7)
    plot = m.request_object("p", "ex.Plot")
    plot.title.set_state("hello")
    plot.source.request_global_object("c")
    saved = encode(m.get_session_state())

    twin = fresh_map()
    twin.set_session_state(m.get_session_state())
    assert encode(twin.get_session_state()) == saved


def test_retain_versus_remove_fixture():
    def build():
        m = fresh_map()
        m.request_object("a", "ex.Counter").count.set_state(1)
        m.request_object("b", "ex.Label").text.set_state("x")
        return m

    partial = [{"objectName": "a", "className": "ex.Counter", "sessionState": {"count": 9}}]

    retained = build()
    retained.set_session_state(partial, remove_missing=False)
    assert retained.get_names() == ["a", "b"]  # mentioned first, rest stable
    assert retained.get_object("a").count.get_state() == 9
    assert retained.get_object("b").text.get_state() == "x"

    removed = build()
    removed.set_session_state(partial, remove_missing=True)
    assert removed.get_names() == ["a"]
    assert removed.get_object("a").count.get_state() == 9


def test_partial_state_moves_mentioned_entries_first():
    m = fresh_map()
    for n in ("a", "b", "c"):
        m.request_object(n, "ex.Counter")
    m.set_session_state([{"objectName": "c"}], remove_missing=False)
    assert m.get_names() == ["c", "a", "b"]


def test_explicit_removal_marker_honored_when_retaining():
    m = fresh_map()
    m.request_object("a", "ex.Counter")
    m.request_object("b", "ex.Counter")
    m.set_session_state([{"objectName": "a", "__removed__": True}], remove_missing=False)
    assert m.get_names() == ["b"]


def test_class_change_via_state_recreates():
    m = fresh_map()
    old = m.request_object("x", "ex.Counter")
    m.set_session_state([{"objectName": "x", "className": "ex.Label", "sessionState": {"text": "t"}}])
    new = m.get_object("x")
    assert old.disposed and new is not old
    assert m.get_class_name("x") == "ex.Label"
    assert new.text.get_state() == "t"


def test_unknown_class_entries_skipped():
    m = fresh_map()
    m.set_session_state([{"objectName": "x", "className": "ex.Nope", "sessionState": {}}])
    assert m.get_names() == []


def test_anonymous_entries_ignored_by_map():
    m = fresh_map()
    m.set_session_state([{"objectName": "", "className": "ex.Counter", "sessionState": {"count": 1}}])
    assert m.get_names() == []


def test_full_state_apply_is_one_effective_trigger():
    m = fresh_map()
    state = [
        {"objectName": "a", "className": "ex.Counter", "sessionState": {"count": 1}},
        {"objectName": "b", "className": "ex.Label", "sessionState": {"text": "x", "size": 3}},
    ]
    count = m.callbacks.trigger_counter
    m.set_session_state(state)
    assert m.callbacks.trigger_counter == count + 1


def test_empty_state_respects_remove_missing():
    m = fresh_map()
    m.request_object("a", "ex.Counter")
    m.set_session_state([], remove_missing=False)
    assert m.get_names() == ["a"]
    m.set_session_state([], remove_missing=True)
    assert m.get_names() == []


@pytest.mark.parametrize(
    "bad",
    [
        5,
        [5],
        [{"objectName": "b", "className": "ex.Counter", "sessionState": {"count": 2}}, 5],
        [{"objectName": "b", "className": "ex.Counter", "extra": 1}],
        [{"objectName": "b", "className": "ex.Counter"}, {"__order__": ["b"], "objectName": "b"}],
    ],
)
def test_a_state_that_is_no_entry_list_is_ignored_with_one_warning(bad, caplog):
    m = fresh_map()
    m.request_object("a", "ex.Counter").count.set_state(1)
    before = m.get_session_state()
    count = m.callbacks.trigger_counter
    with caplog.at_level(logging.WARNING):
        m.set_session_state(bad)
    assert m.get_session_state() == before and m.callbacks.trigger_counter == count
    assert len(caplog.records) == 1


# --- wrapper ---------------------------------------------------------------------

def test_wrapper_local_mode_roundtrip():
    reg = build_demo_registry()
    w = LinkableDynamicObject(reg)
    obj = w.request_local_object("ex.Counter")
    obj.count.set_state(4)
    state = w.get_session_state()
    assert state == [entry("", "ex.Counter", {"count": 4})]

    twin = LinkableDynamicObject(reg)
    twin.set_session_state(state)
    assert twin.local_class == "ex.Counter"
    assert state_equivalent(twin.get_session_state(), state)


def test_wrapper_local_same_class_reused():
    w = LinkableDynamicObject(build_demo_registry())
    a = w.request_local_object("ex.Counter")
    b = w.request_local_object("ex.Counter")
    assert a is b


def test_wrapper_global_mode_resolves_and_dangles():
    m = fresh_map()
    target = m.request_object("shared", "ex.Counter")
    plot = m.request_object("p", "ex.Plot")

    assert plot.source.request_global_object("shared") is target
    assert plot.source.get_session_state() == [entry("shared", "", None)]

    m.remove_object("shared")
    assert plot.source.get_object() is None  # dangling

    replacement = m.request_object("shared", "ex.Label")
    assert plot.source.get_object() is replacement  # re-resolved


def test_wrapper_global_requires_root():
    w = LinkableDynamicObject(build_demo_registry())
    with pytest.raises(NoRoot):
        w.request_global_object("x")


def test_wrapper_global_target_edits_bubble():
    m = fresh_map()
    target = m.request_object("shared", "ex.Counter")
    plot = m.request_object("p", "ex.Plot")
    plot.source.request_global_object("shared")
    before = plot.source.callbacks.trigger_counter
    target.count.set_state(42)
    assert plot.source.callbacks.trigger_counter == before + 1


def test_wrapper_retarget_triggers():
    m = fresh_map()
    m.request_object("a", "ex.Counter")
    plot = m.request_object("p", "ex.Plot")
    plot.source.request_global_object("ghost")
    before = plot.source.callbacks.trigger_counter
    m.request_object("ghost", "ex.Counter")  # reference resolves now
    assert plot.source.callbacks.trigger_counter == before + 1


def test_wrapper_remove_object_and_empty_state():
    w = LinkableDynamicObject(build_demo_registry())
    w.request_local_object("ex.Counter")
    w.remove_object()
    assert w.get_object() is None
    assert w.get_session_state() == []
    w.remove_object()  # no-op when already empty


@pytest.mark.parametrize(
    "bad",
    [
        {"x": 1},
        [{"objectName": "", "className": "ex.Label", "sessionState": {"size": 3}}, 5],
        [{"className": "ex.Label", "sessionState": {"size": 3}, "extra": 1}],
    ],
)
def test_wrapper_ignores_a_state_that_is_no_entry_list_with_one_warning(bad, caplog):
    w = LinkableDynamicObject(build_demo_registry())
    w.request_local_object("ex.Counter").count.set_state(4)
    before = w.get_session_state()
    with caplog.at_level(logging.WARNING):
        w.set_session_state(bad)
    assert w.local_class == "ex.Counter" and w.get_session_state() == before
    assert len(caplog.records) == 1


def test_wrapper_dispose_detaches_root_watch():
    m = fresh_map()
    plot = m.request_object("p", "ex.Plot")
    plot.source.request_global_object("late")
    m.remove_object("p")
    assert plot.source.disposed
    m.request_object("late", "ex.Counter")  # must not hit the disposed wrapper


def test_wrapper_state_roundtrip_through_map():
    m = fresh_map()
    m.request_object("shared", "ex.Counter").count.set_state(3)
    plot = m.request_object("p", "ex.Plot")
    plot.source.request_global_object("shared")
    saved = encode(m.get_session_state())

    twin = fresh_map()
    twin.set_session_state(m.get_session_state())
    assert encode(twin.get_session_state()) == saved
    twin_plot = twin.get_object("p")
    assert twin_plot.source.get_object() is twin.get_object("shared")


# --- live-apply versus value-apply alignment --------------------------------------------

def test_live_apply_matches_value_apply():
    # The relay patches plain values while clients patch live trees; sync
    # convergence needs the two appliers to agree diff-for-diff.
    rng = random.Random(424242)
    for case in range(60):
        root = graphops.build_random_session(rng, edits=10)
        s1 = root.get_session_state()
        for _ in range(rng.randint(1, 6)):
            graphops.random_edit(rng, root)
        s2 = root.get_session_state()
        d = diff(s1, s2)

        value_result = apply_diff(s1, d, remove_missing=False)
        live = graphops.new_root()
        live.set_session_state(s1)
        live.set_session_state(d, remove_missing=False)

        assert state_equivalent(live.get_session_state(), value_result), f"case {case}"
        assert state_equivalent(live.get_session_state(), s2), f"case {case} vs s2"


def test_random_roundtrip_through_blank_slate():
    rng = random.Random(99)
    for case in range(40):
        root = graphops.build_random_session(rng, edits=14)
        state = root.get_session_state()
        twin = graphops.new_root()
        twin.set_session_state(state)
        assert state_equivalent(twin.get_session_state(), state), f"case {case}"
