"""Two-way linking: adoption, echo suppression, chains, external bridging."""

import random

import pytest

import graphops
from linkstate import linkable, linking, statetree
from linkstate.callbacks import CallbackCollection
from linkstate.errors import AlreadyUnlinked, Disposed, DuplicateLink, SelfLink
from linkstate.linkable import LinkableNumber, LinkableVariable
from linkstate.linking import link_external_property, link_session_state
from linkstate.statetree import state_equivalent


def test_secondary_adopts_primary_at_link_time():
    a = LinkableNumber(default=5)
    b = LinkableNumber(default=0)
    link_session_state(a, b)
    assert b.get_state() == 5


def test_two_way_propagation():
    a = LinkableVariable(default="x")
    b = LinkableVariable()
    link_session_state(a, b)
    a.set_state("from-a")
    assert b.get_state() == "from-a"
    b.set_state("from-b")
    assert a.get_state() == "from-b"


def test_edit_costs_one_effective_trigger_per_endpoint():
    a = LinkableNumber(default=0)
    b = LinkableNumber(default=0)
    link_session_state(a, b)
    ca, cb = a.callbacks.trigger_counter, b.callbacks.trigger_counter
    a.set_state(1)
    assert a.callbacks.trigger_counter == ca + 1
    assert b.callbacks.trigger_counter == cb + 1


def test_equivalent_set_propagates_nothing():
    a = LinkableNumber(default=3)
    b = LinkableNumber(default=0)
    link_session_state(a, b)
    ca, cb = a.callbacks.trigger_counter, b.callbacks.trigger_counter
    a.set_state(3.0)
    assert (a.callbacks.trigger_counter, b.callbacks.trigger_counter) == (ca, cb)


def test_unlink_stops_propagation_and_is_single_shot():
    a = LinkableNumber(default=0)
    b = LinkableNumber(default=0)
    link = link_session_state(a, b)
    link.unlink()
    a.set_state(9)
    assert b.get_state() == 0
    with pytest.raises(AlreadyUnlinked):
        link.unlink()


def test_self_and_duplicate_links_rejected():
    a = LinkableNumber()
    b = LinkableNumber()
    with pytest.raises(SelfLink):
        link_session_state(a, a)
    link_session_state(a, b)
    with pytest.raises(DuplicateLink):
        link_session_state(a, b)
    with pytest.raises(DuplicateLink):
        link_session_state(b, a)


def test_one_object_links_to_two_others():
    a = LinkableNumber(default=1)
    b = LinkableNumber()
    c = LinkableNumber()
    link_session_state(a, b)
    link_session_state(a, c)
    c.set_state(3)
    assert (a.get_state(), b.get_state()) == (3, 3)


def test_relink_after_unlink():
    a = LinkableNumber(default=1)
    b = LinkableNumber(default=2)
    link_session_state(a, b).unlink()
    link_session_state(a, b)
    a.set_state(5)
    assert b.get_state() == 5


def test_link_disposed_object_rejected():
    a = LinkableNumber()
    b = LinkableNumber()
    b.dispose()
    with pytest.raises(Disposed):
        link_session_state(a, b)


def test_a_bridge_to_a_disposed_notify_is_refused_and_leaves_the_variable_alone():
    v = LinkableNumber(default=1)
    notify = CallbackCollection()
    notify.dispose()
    with pytest.raises(Disposed):
        link_external_property(v, lambda: 0, lambda x: None, notify)
    assert v.callbacks._immediate == []
    v.set_state(2)
    assert v.get_state() == 2


def test_chain_converges_with_bounded_triggers():
    a = LinkableNumber(default=0)
    b = LinkableNumber(default=0)
    c = LinkableNumber(default=0)
    link_session_state(a, b)
    link_session_state(b, c)
    counts = lambda: (a.callbacks.trigger_counter, b.callbacks.trigger_counter, c.callbacks.trigger_counter)

    before = counts()
    b.set_state(7)  # middle edit reaches both ends
    assert a.get_state() == c.get_state() == 7
    deltas = [after - b0 for after, b0 in zip(counts(), before)]
    assert all(d <= 2 for d in deltas)

    before = counts()
    a.set_state(11)  # end edit crosses the chain
    assert b.get_state() == c.get_state() == 11
    deltas = [after - b0 for after, b0 in zip(counts(), before)]
    assert all(d <= 2 for d in deltas)


def test_linked_hash_maps_mirror_structure_not_identity():
    m1 = graphops.new_root()
    m2 = graphops.new_root()
    link_session_state(m1, m2)

    m1.request_object("c", "ex.Counter").count.set_state(4)
    assert m2.get_names() == ["c"]
    assert m2.get_object("c") is not m1.get_object("c")
    assert m2.get_object("c").count.get_state() == 4

    m2.get_object("c").count.set_state(8)
    assert m1.get_object("c").count.get_state() == 8

    m1.request_object("z", "ex.Label")
    m1.set_name_order(["z", "c"])
    assert m2.get_names() == ["z", "c"]

    m1.remove_object("z")
    assert m2.get_names() == ["c"]


def test_verifier_divergence_does_not_loop():
    a = LinkableVariable(default=1)
    b = LinkableVariable(default=1, verifier=lambda x: x is None or (isinstance(x, int) and x < 10))
    link_session_state(a, b)
    a.set_state(50)  # b rejects silently; no ping-pong, no exception
    assert a.get_state() == 50
    assert b.get_state() == 1


def test_random_linked_sessions_converge():
    rng = random.Random(1337)
    for case in range(50):
        roots = [graphops.new_root() for _ in range(3)]
        link_session_state(roots[0], roots[1])
        link_session_state(roots[1], roots[2])
        for _ in range(8):
            before = [r.callbacks.trigger_counter for r in roots]
            graphops.random_edit(rng, rng.choice(roots))
            deltas = [r.callbacks.trigger_counter - b for r, b in zip(roots, before)]
            assert all(d <= 2 for d in deltas), f"case {case}: echo beyond bound {deltas}"
            s = roots[0].get_session_state()
            assert state_equivalent(s, roots[1].get_session_state()), f"case {case}"
            assert state_equivalent(s, roots[2].get_session_state()), f"case {case}"


def test_external_property_bridge():
    external = {"value": None}
    notify = CallbackCollection()
    v = LinkableNumber(default=3)
    link = link_external_property(v, lambda: external["value"], lambda x: external.update(value=x), notify)
    assert external["value"] == 3  # external adopts at link time

    v.set_state(10)
    assert external["value"] == 10

    external["value"] = 42
    notify.trigger()
    assert v.get_state() == 42

    link.unlink()
    v.set_state(0)
    assert external["value"] == 42


def test_external_bridge_counts_no_echo():
    sets = []
    external = {"value": None}
    notify = CallbackCollection()

    def setter(x):
        sets.append(x)
        external["value"] = x

    v = LinkableNumber(default=1)
    link_external_property(v, lambda: external["value"], setter, notify)
    assert sets == [1]
    v.set_state(2)
    assert sets == [1, 2]
    external["value"] = 9
    notify.trigger()
    assert v.get_state() == 9
    assert sets == [1, 2]  # inbound change never re-runs the setter


def _count_outermost_to_plain(monkeypatch):
    """Calls of to_plain made while no other to_plain runs: one per copy
    of a tree, however large."""
    calls = []
    depth = [0]
    real = statetree.to_plain

    def counted(node):
        depth[0] += 1
        if depth[0] == 1:
            calls.append(1)
        try:
            return real(node)
        finally:
            depth[0] -= 1

    for module in (statetree, linkable):
        monkeypatch.setattr(module, "to_plain", counted)
    return calls


def test_a_linked_edit_copies_the_edit_not_the_tree(monkeypatch):
    a = graphops.new_root()
    for i in range(500):
        a.request_object(f"plot{i:03d}", "ex.Plot")
    b = graphops.new_root()
    link_session_state(a, b)
    assert state_equivalent(a.get_session_state(), b.get_session_state())
    calls = _count_outermost_to_plain(monkeypatch)
    a.get_object("plot250").label.text.set_state("edited")
    # a leaf value is its own canonical value, so neither end copies it;
    # copying both whole roots, as a link once did, made 1,505 calls here,
    # and copying the edited value and the other end's value made 2
    assert len(calls) == 0
    monkeypatch.undo()
    assert b.get_object("plot250").label.text.get_state() == "edited"
    assert state_equivalent(a.get_session_state(), b.get_session_state())


@pytest.mark.parametrize("n", [500, 5000])
def test_a_linked_edit_compares_no_entry_and_the_far_root_holds_the_sources_snapshot(monkeypatch, n):
    a = graphops.new_root()
    b = graphops.new_root()
    for i in range(n):
        a.request_object(f"plot{i:05d}", "ex.Plot")
        b.request_object(f"plot{i:05d}", "ex.Plot")
    link_session_state(a, b)  # equivalent but separately built trees
    matched = []
    real = statetree._diff_matched
    monkeypatch.setattr(statetree, "_diff_matched", lambda *args: matched.append(1) or real(*args))
    a.get_object(f"plot{n // 2:05d}").title.set_state("edited")
    assert matched == []  # a diff of the two roots compares all n entries
    assert b._snapshot() is a._snapshot()
    assert b.get_object(f"plot{n // 2:05d}").title.get_state() == "edited"
    b.get_object("plot00001").title.set_state("back")
    assert matched == []
    assert a._snapshot() is b._snapshot()
    assert a.get_object("plot00001").title.get_state() == "back"


def test_linked_variables_end_byte_identical():
    a = LinkableVariable({"x": 1, "y": 2})
    b = LinkableVariable({"x": 1, "y": 2})
    link_session_state(a, b)
    a.set_session_state({"__value__": {"y": 3, "x": 1}})
    assert statetree.encode(a.get_state()) == statetree.encode(b.get_state()) == '{"y":3,"x":1}'


def test_linked_roots_stay_equivalent_through_structural_edits():
    a = graphops.new_root()
    b = graphops.new_root()
    link_session_state(a, b)
    steps = [
        lambda: a.request_object("p", "ex.Plot").title.set_state("one"),
        lambda: a.request_object("q", "ex.Counter").count.set_state(3),
        lambda: b.request_object("r", "ex.Label").text.set_state("from b"),
        lambda: a.set_name_order(["r", "q"]),
        lambda: a.request_object("q", "ex.Label"),  # class change in place
        lambda: b.get_object("p").source.request_local_object("ex.Counter"),
        lambda: a.get_object("p").source.request_global_object("r"),
        lambda: b.remove_object("r"),
        lambda: a.remove_object("p"),
    ]
    for i, step in enumerate(steps):
        step()
        assert state_equivalent(a.get_session_state(), b.get_session_state()), f"step {i}"
    assert b.get_names() == ["q"] and b.get_class_name("q") == "ex.Label"


def test_a_setter_that_triggers_notify_is_one_set_and_its_echo_reads_nothing():
    calls = []
    external = {"value": None}
    notify = CallbackCollection()

    def getter():
        calls.append("get")
        return external["value"]

    def setter(x):
        calls.append("set")
        external["value"] = x
        notify.trigger()  # the external side announces the value it was given

    v = LinkableNumber(default=1)
    link_external_property(v, getter, setter, notify)
    assert calls == ["set"]
    calls.clear()
    v.set_state(2)
    assert calls == ["get", "set"]  # the compare, the copy, and no read inside the echo
    assert v.get_state() == external["value"] == 2


def test_an_equivalent_value_on_either_side_sets_nothing(monkeypatch):
    sets = []
    external = {"value": None}
    notify = CallbackCollection()
    v = LinkableNumber(default=3)
    link_external_property(v, lambda: external["value"], lambda x: sets.append(x) or external.update(value=x), notify)
    assert sets == [3]
    monkeypatch.setattr(v, "set_state", lambda x: sets.append(("variable", x)))
    external["value"] = 3.0
    notify.trigger()  # the external side changed to an equivalent value
    v.callbacks.trigger()  # the variable triggered without a new value
    assert sets == [3]


@pytest.mark.parametrize("kind", ["session", "external"])
def test_a_link_with_a_disposed_endpoint_copies_nothing_and_unlink_detaches_the_live_side(kind, monkeypatch):
    reads = []
    a = LinkableNumber(default=1)
    if kind == "session":
        b = LinkableNumber(default=1)
        live, link = a.callbacks, link_session_state(a, b)
        dead = b
        monkeypatch.setattr(linking, "_copy_state", lambda *args: reads.append(args))
    else:
        live = CallbackCollection()
        link = link_external_property(a, lambda: reads.append("get"), lambda x: reads.append(("set", x)), live)
        reads.clear()
        dead = a
    registered = len(live._immediate)
    dead.dispose()
    if kind == "session":
        a.set_state(2)
    else:
        live.trigger()
    assert reads == []  # the guard stops the copy before it reads either side
    link.unlink()
    assert len(live._immediate) == registered - 1
    assert not link.active
