"""The mention-list diffs and the in-place entry reads equal the general paths.

Two built entry lists with the same names in the same order share one
mention list (statetree._mentions). A history record takes both diffs of a
snapshot pair from one C-level identity pass (statetree._diff_both), as
does any diff of such a pair (_diff_entry_list). An entry diff that names a
built base's entries in their own places is read in place: only its items
that are not their entry's bare mention are parsed (_entry_diff with a
base), and they change a copy of the base (_apply_entry_diff) or the live
hash map's children, which reach the value-level result (_reach). Each
must give exactly what the general path gives: the same diff bytes, the
same applied tree or error, the same children and the same triggers.
"""

import json
import logging
import random

import pytest

import graphops
import treegen
from linkstate import history, statetree
from linkstate.dynamic import LinkableDynamicObject, LinkableHashMap
from linkstate.linkable import LinkableVariable
from linkstate.statetree import (
    _IN_PLACE,
    _apply,
    _apply_entry_diff,
    _apply_entry_diff_by_name,
    _diff_both,
    _diff_entry_list,
    _diff_entry_list_by_name,
    _diff_plain,
    _entry_diff,
    _EntryList,
    _is_entry_list,
    _mentions,
    apply_diff,
    diff,
    encode,
    encode_diff,
    to_plain,
)
from linkstate.sync import Message, Relay


def _built(node):
    """node with every entry list an _EntryList, as snapshots and applies build them."""
    if isinstance(node, dict):
        return {k: _built(v) for k, v in node.items()}
    if isinstance(node, list):
        out = [_built(x) for x in node]
        return _EntryList(out) if _is_entry_list(node) else out
    return node


def _e(name, cls="ex.Counter", state=None):
    return {"objectName": name, "className": cls, "sessionState": state}


_X, _Y, _Z = _e("x", state={"count": 1}), _e("y", state={"count": 2}), _e("z", "ex.Label", {"text": "t"})
_ANON = _e("", "ex.Counter", {"count": 3})

# Built entry-list pairs: identical, equal copies, anonymous entries, reorder,
# add, remove, class change, demotion to a reference and back, and entries
# that differ only in which keys they write.
HAND_PAIRS = [
    (_EntryList([_X, _Y]), _EntryList([_X, _Y])),
    (_EntryList([_X, _Y]), _built(to_plain([_X, _Y]))),
    (_EntryList([_X, _ANON]), _EntryList([_X, _e("", "ex.Counter", {"count": 4})])),
    (_EntryList([_ANON, _e("", "ex.Label", None)]), _EntryList([_e("", "ex.Label", None), _ANON])),
    (_EntryList([_X, _Y, _Z]), _EntryList([_Y, _X, _Z])),
    (_EntryList([_X, _Y]), _EntryList([_X, _Y, _Z])),
    (_EntryList([_X, _Y, _Z]), _EntryList([_X, _Z])),
    (_EntryList([_X, _Y]), _EntryList([_X, _e("y", "ex.Label", {"text": ""})])),
    (_EntryList([_X, _Y]), _EntryList([_X, _e("y", "", None)])),
    (_EntryList([_X, _e("y", "", None)]), _EntryList([_X, _Y])),
    (_EntryList([_X, {"objectName": "y", "className": "ex.Counter"}]), _EntryList([_X, _e("y")])),
    (_EntryList([{"objectName": "y"}]), _EntryList([{"objectName": "y", "className": ""}])),
    (_EntryList([_X, _Y]), _EntryList([_e("x", state={"count": 1, "more": [1, 2]}), _Y])),
    (_EntryList([_X, _Y]), _EntryList([_Y, _e("w")])),
    (_EntryList([_X]), _EntryList()),
    (_EntryList(), _EntryList()),
    (_EntryList([_X]), [_X]),
    ({"a": _EntryList([_X])}, {"a": _EntryList([_Y])}),
]


def _graph_pairs():
    for seed in range(40):
        rng = random.Random(seed)
        root = graphops.new_root()
        before = root._snapshot()
        for _ in range(12):
            graphops.random_edit(rng, root)
            after = root._snapshot()
            yield before, after
            yield before, to_plain(after)
            before = after


def _tree_pairs():
    rng = random.Random(9)
    for _ in range(300):
        a = treegen.random_dsl(rng, depth=3)
        yield _built(to_plain(a)), _built(to_plain(treegen.mutate(rng, a)))
        yield _built(to_plain(a)), _built(to_plain(a))


def _all_pairs():
    yield from HAND_PAIRS
    yield from _graph_pairs()
    yield from _tree_pairs()


def _same(x, y):
    return x == y and encode_diff(x) == encode_diff(y)


# --- one walk for both diffs of a record --------------------------------------------


def _plain(node):
    """A plain copy of node that keeps every key as written: no built lists,
    so no mention lists, and every entry list diffs by name."""
    return json.loads(json.dumps(node))


def test_one_walk_gives_both_diffs_exactly():
    for i, (a, b) in enumerate(_all_pairs()):
        fwd, bwd = _diff_both(a, b)
        assert _same(fwd, _diff_plain(a, b)), f"pair {i}"
        assert _same(bwd, _diff_plain(b, a)), f"pair {i}"
        assert _same(fwd, _diff_plain(_plain(a), _plain(b))), f"pair {i}"
        assert _same(bwd, _diff_plain(_plain(b), _plain(a))), f"pair {i}"


def test_mention_list_diffs_equal_the_match_by_name():
    paired = 0
    for i, (a, b) in enumerate(_all_pairs()):
        if not (_is_entry_list(a) and _is_entry_list(b)):
            continue
        paired += statetree._paired(a, b) is not None
        for x, y in ((a, b), (b, a)):
            assert _same(_diff_entry_list(x, y), _diff_entry_list_by_name(_plain(x), _plain(y))), f"pair {i}"
    assert paired > 300


def test_an_identical_pair_answers_at_once(monkeypatch):
    # The record after an undo diffs the snapshot against itself: no entry
    # may be walked, not even for its mention.
    snap = _EntryList([_X, _Y, _Z])
    walked = []
    differing = statetree._differing
    monkeypatch.setattr(statetree, "_differing", lambda *a: walked.append(a) or differing(*a))
    monkeypatch.setattr(statetree, "_diff_plain", lambda *a: walked.append(a) or _diff_plain(*a))
    assert _diff_both(snap, snap) == ({}, {})
    assert walked == []
    assert _diff_both(snap, _EntryList(snap)) == ({}, {})
    assert walked


def test_unchanged_entries_share_their_mention():
    a = _EntryList([_X, _Y, _Z])
    b = _EntryList([_X, _e("y", state={"count": 5}), _Z])
    fwd, bwd = _diff_both(a, b)
    assert fwd[0] is bwd[0] and fwd[2] is bwd[2]
    assert fwd[1] == {"objectName": "y", "className": "ex.Counter", "sessionState": {"count": 5}}
    assert bwd[1] == {"objectName": "y", "className": "ex.Counter", "sessionState": {"count": 2}}
    # the shared items are the lists' one mention list, which b now shares
    m = _mentions(a)
    assert _mentions(b) is m and fwd[0] is m[0] and fwd[2] is m[2]
    assert _diff_both(b, a) == (bwd, fwd) and _diff_both(b, a)[0][0] is m[0]


def test_a_mention_list_is_built_once_per_names_and_never_for_anonymous_entries():
    a = _EntryList([_X, _Y, _Z])
    m = _mentions(a)
    assert m == [{"objectName": "x"}, {"objectName": "y"}, {"objectName": "z"}]
    assert _mentions(a) is m
    copy = statetree._in_place_copy(a)
    assert _mentions(copy) is m
    patch = [{"objectName": "x"}, {"objectName": "y", "sessionState": {"count": 3}}, {"objectName": "z"}]
    applied = statetree._apply(a, patch, True)
    assert applied[1]["sessionState"] == {"count": 3} and _mentions(applied) is m
    assert _mentions(_EntryList([_X, _ANON])) is None
    assert _mentions(_EntryList([_X, {"className": "ex.Counter"}])) is None
    # a list with other names, or the same names in another order, shares nothing
    assert statetree._paired(a, _EntryList([_Y, _X, _Z])) is None
    assert statetree._paired(a, _EntryList([_X, _Y, _e("w")])) is None
    # a snapshot rebuilt for a changed child has the last one's, before any diff pairs them
    root = graphops.new_root()
    for n in "abc":
        root.request_object(n, "ex.Counter")
    m = _mentions(root._snapshot())
    root.get_object("b").count.set_state(1)
    assert root._snapshot().mentions is m


# --- read in place -----------------------------------------------------------------------

_NAMED = _EntryList([_X, _Y, _Z])
_M = [{"objectName": n} for n in "xyz"]


def _at(i, item):
    """The bare mentions of _NAMED's entries with item at position i."""
    return [item if j == i else m for j, m in enumerate(_M)]


# Diffs over _NAMED read in place: every entry named in its place (pure
# mentions, a state patch, a class change, a reference item with and
# without a state, a class key alone).
IN_PLACE_DIFFS = [
    list(_M),
    _at(0, {"objectName": "x", "sessionState": {"count": 9}}),
    _at(2, {"objectName": "z", "className": "ex.Counter", "sessionState": {"count": 0}}),
    _at(0, {"objectName": "x", "className": "", "sessionState": None}),
    _at(0, {"objectName": "x", "className": "", "sessionState": {"count": 7}}),
    _at(1, {"objectName": "y", "className": "ex.Counter"}),
]
# Diffs the in-place read hands over whole: a removal, a reorder, a creation
# in place of a mention, an order marker appended and one in place of a
# mention, a malformed order marker, an item naming another entry, a
# duplicate creation, too few items, an anonymous item, a removal and
# re-creation of one name, and a bare anonymous mention.
HANDED_OVER_DIFFS = [
    _at(2, {"objectName": "z", "__removed__": True}),
    [_M[2], _M[1], _M[0]],
    _at(2, {"objectName": "w", "className": "ex.Counter"}),
    _M + [{"__order__": ["z", "x"]}],
    _at(2, {"__order__": ["z", "x"]}),
    _at(2, {"__order__": "zx"}),
    _at(1, {"objectName": "z", "sessionState": {"count": 1}}),
    _at(1, {"objectName": "x"}),
    [_M[0], {"objectName": "w", "className": "ex.Counter"}, {"objectName": "w", "className": "ex.Counter"}],
    _M[:2],
    _at(1, {"className": "ex.Counter", "sessionState": {"count": 1}}),
    [{"objectName": "x", "__removed__": True}, {"objectName": "x", "className": "ex.Label"}, _M[2]],
    _at(1, {"objectName": ""}),
]
# Diffs no read takes: a non-dict at a changed position, an unknown key, a
# name that is no string.
MALFORMED_DIFFS = [_at(1, 5), _at(1, {"objectName": "y", "bogus": 1}), _at(1, {"objectName": 5}), _at(0, [])]


# Items over _EntryList([_X, _ANON, _Z]), which has no mention list: every
# entry named in place (pure mentions, a state patch, a class change, a
# reference item, an anonymous patch), then a removal, a reorder, a
# creation, an order marker, a mention of an unknown name, too few items.
ANON_BASE_DIFFS = [
    [{"objectName": "x"}, {"objectName": "", "className": "ex.Counter"}, {"objectName": "z"}],
    [{"objectName": "x", "sessionState": {"count": 9}}, {"className": "ex.Counter", "sessionState": {"count": 8}},
     {"objectName": "z"}],
    [{"objectName": "x"}, {"className": "ex.Label", "sessionState": {"text": "n"}},
     {"objectName": "z", "className": "ex.Counter", "sessionState": {"count": 0}}],
    [{"objectName": "x", "className": "", "sessionState": None}, {"className": "ex.Counter"}, {"objectName": "z"}],
    [{"objectName": "x", "className": "", "sessionState": {"count": 7}}, {"className": ""}, {"objectName": "z"}],
    [{"objectName": "x"}, {"className": "ex.Counter"}, {"objectName": "z", "__removed__": True}],
    [{"objectName": "z"}, {"className": "ex.Counter"}, {"objectName": "x"}],
    [{"objectName": "x"}, {"className": "ex.Counter"}, {"objectName": "w", "className": "ex.Counter"}],
    [{"objectName": "x"}, {"className": "ex.Counter"}, {"objectName": "z"}, {"__order__": ["z", "x"]}],
    [{"objectName": "x"}, {"className": "ex.Counter"}, {"objectName": "q"}],
    [{"objectName": "x"}, {"objectName": "z"}],
    [{"objectName": "x", "__removed__": True}, {"objectName": "x", "className": "ex.Label"}, {"objectName": "z"}],
]


def _apply_cases():
    for base in (_NAMED, _EntryList([_X, _ANON, _Z])):
        for d in IN_PLACE_DIFFS + HANDED_OVER_DIFFS + MALFORMED_DIFFS + ANON_BASE_DIFFS:
            yield base, d
    for a, b in _all_pairs():
        if type(a) is _EntryList:
            for d in (_diff_plain(a, b), [{"objectName": e["objectName"]} for e in a if e["objectName"]]):
                yield a, d


def _outcome(base, apply, parsed, remove_missing):
    """What apply(base, *parsed, remove_missing) gives: the result's type,
    bytes and which entries it shares with base, or the error."""
    if parsed is None:
        return "no entry diff"
    try:
        out = apply(base, *parsed, remove_missing)
    except ValueError as e:
        return ("raises", str(e))
    return type(out), encode_diff(out), [any(x is y for y in base) for x in out]


def test_apply_by_position_equals_apply_by_name():
    n = in_place = 0
    for i, (base, d) in enumerate(_apply_cases()):
        parsed = _entry_diff(d, base)
        in_place += parsed is not None and parsed[1] is _IN_PLACE
        for remove_missing in (False, True):
            got = _outcome(base, _apply_entry_diff, parsed, remove_missing)
            assert got == _outcome(base, _apply_entry_diff_by_name, _entry_diff(d), remove_missing), f"case {i}"
            if parsed is not None:  # the value apply reads in place too
                value_apply = lambda b, *args: statetree._apply(b, d, args[-1])  # noqa: E731
                assert _outcome(base, value_apply, parsed, remove_missing) == got, f"case {i}"
        n += 1
    assert n > 500 and in_place > 300


def test_the_head_takes_the_common_diff_and_hands_over_the_rest(monkeypatch):
    calls = []
    real = _apply_entry_diff_by_name
    monkeypatch.setattr(
        "linkstate.statetree._apply_entry_diff_by_name", lambda *a: calls.append(1) or real(*a)
    )
    parsed_items = []
    real_item = statetree._entry_item
    monkeypatch.setattr(statetree, "_entry_item", lambda x: parsed_items.append(x) or real_item(x))
    handed_over = []
    for d in IN_PLACE_DIFFS + HANDED_OVER_DIFFS:
        calls.clear()
        parsed_items.clear()
        parsed = _entry_diff(d, _NAMED)
        if parsed[1] is _IN_PLACE:
            # only the items that are not their entry's bare mention are read
            assert parsed_items == [x for x, m in zip(d, _M) if x != m]
        try:
            _apply_entry_diff(_NAMED, *parsed, True)
        except ValueError:
            pass  # the duplicate creation
        handed_over.append(len(calls))
    assert handed_over == [0] * len(IN_PLACE_DIFFS) + [1] * len(HANDED_OVER_DIFFS)
    # a base with an anonymous entry has no mention list: every diff goes by name
    for d in IN_PLACE_DIFFS + ANON_BASE_DIFFS[:5]:
        calls.clear()
        _apply_entry_diff(_EntryList([_X, _ANON, _Z]), *_entry_diff(d, _EntryList([_X, _ANON, _Z])), True)
        assert calls == [1]


def test_the_relay_reads_a_hostile_payload_in_place_as_it_reads_it_whole():
    # A relay whose state is a plain list (as a test may leave it) takes no
    # in-place read; both must end in the same state, sequence and replies.
    full = [_e(n, state={"count": i}) for i, n in enumerate("xyz")]
    for d in IN_PLACE_DIFFS + HANDED_OVER_DIFFS + MALFORMED_DIFFS:
        outcomes = []
        for built in (True, False):
            relay = Relay()
            relay.handle(Message("Hello", "s", "a"))
            relay.handle(Message("Diff", "s", "a", 0, full))
            relay.handle(Message("Diff", "s", "a", 0, list(_M)))  # the state's mention list is built
            if not built:
                relay._sessions["s"].state = to_plain(relay.session_state("s"))
            out = relay.handle(Message("Diff", "s", "a", 0, _plain(d)))
            outcomes.append((encode(relay.session_state("s")), relay.session_seq("s"), [(t, m.kind) for t, m in out]))
        assert outcomes[0] == outcomes[1], d


# --- the live apply: one walk to the value-level apply's result ----------------------------


def _root_from(state):
    root = graphops.new_root()
    root.set_session_state(to_plain(state))
    root.scheduler.flush_frame()
    return root


def _read(obj):
    """The live state read from the objects themselves, past every cache."""
    if isinstance(obj, LinkableVariable):
        return obj.get_state()
    if isinstance(obj, LinkableHashMap):
        return [_e(n, obj.get_class_name(n), _read(obj.get_object(n))) for n in obj.get_names()]
    if isinstance(obj, LinkableDynamicObject):
        if obj.local_class:
            return [_e("", obj.local_class, _read(obj.get_object()))]
        return [_e(obj.global_name, "", None)] if obj.global_name else []
    return {name: _read(obj.get_linkable_child(name)) for name in obj.child_names()}


def _sources(node):
    """Every plot's dynamic slot in a plain state."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "source" and isinstance(v, list):
                yield v
            yield from _sources(v)
    elif isinstance(node, list):
        for v in node:
            yield from _sources(v)


def _classes(root):
    return {n: root.get_class_name(n) for n in root.get_names()}


@pytest.mark.parametrize("seed", range(8))
def test_the_live_apply_ends_where_the_value_level_apply_does(seed):
    # Over graphops diffs (built and as read off the wire), full states and
    # bare mention lists, under both flags, with every class registered:
    # the live tree ends at the bytes of _apply over its snapshot, its
    # snapshot is that result, the root triggers once when the state
    # changes and never when it does not, and the child list reports each
    # entry that came or went (a class change is both). The one state a
    # live tree cannot hold is a dynamic slot of two entries (a full state
    # merged over a slot that changed its entry): the slot takes the first,
    # and only there the live tree and the value differ.
    rng = random.Random(seed)
    source = graphops.new_root()
    for _ in range(6):
        graphops.random_edit(rng, source)
    compared = 0
    for step in range(12):
        a = source._snapshot()
        graphops.random_edit(rng, source)
        b = source._snapshot()
        names = [e["objectName"] for e in a]
        mentions = [{"objectName": n} for n in names]
        d = _diff_plain(a, b)
        states = [d, _plain(d), to_plain(b), mentions, mentions[::-1], mentions + [{"__order__": names[::-1]}]]
        for state in states:
            for remove_missing in (False, True):
                live = _root_from(a)
                snap = live._snapshot()
                target = _apply(snap, state, remove_missing)
                before = (live.callbacks.trigger_counter, live.child_list_callbacks.trigger_counter, _classes(live))
                live.set_session_state(state, remove_missing)
                live.scheduler.flush_frame()
                if any(len(slot) > 1 for slot in _sources(target)):
                    continue
                compared += 1
                where = f"seed {seed} step {step} state {states.index(state)} remove_missing {remove_missing}"
                assert encode(_read(live)) == encode(target), where
                assert live._snapshot() is target or encode(live._snapshot()) == encode(target), where
                old, new = before[2], _classes(live)
                came_or_went = set(old).symmetric_difference(new)
                replaced = [n for n in set(old) & set(new) if old[n] != new[n]]
                assert live.callbacks.trigger_counter - before[0] == (_diff_plain(snap, target) != {}), where
                assert live.child_list_callbacks.trigger_counter - before[1] == len(came_or_went) + 2 * len(replaced), where
    assert compared > 100


def test_a_reached_root_is_its_target_and_a_later_edit_still_shows():
    # The filled slots keep the cache rule: after a live apply lands on its
    # target, an edit anywhere below drops every slot on its way up.
    rng = random.Random(3)
    source = graphops.build_random_session(rng, edits=10)
    live = _root_from(source._snapshot())
    for _ in range(30):
        graphops.random_edit(rng, source)
        target = _apply(live._snapshot(), _diff_plain(live._snapshot(), source._snapshot()), True)
        reached = live._reach(target)
        assert reached == (live._snapshot() is target)
        assert encode(_read(live)) == encode(target)
        for var in graphops.all_variables(live)[:3]:
            var.set_state(graphops.random_value_for(rng, var))
        assert encode(live._snapshot()) == encode(_read(live))
        live._reach(source._snapshot())


# Hostile states, each with the rule the live apply follows (docs/diff-format.md).


def test_an_entry_of_a_class_the_registry_lacks_removes_the_child_it_names():
    for remove_missing in (False, True):
        root = _root_from(_MAP_STATE)
        root.set_session_state([{"objectName": "x"}, _e("y", "ex.Nope", {}), {"objectName": "z"}], remove_missing)
        assert root.get_names() == ["x", "z"]


def test_a_state_that_repeats_an_entry_name_is_dropped_whole_with_a_warning(caplog):
    root = _root_from(_MAP_STATE)
    before = encode(root._snapshot())
    twice = [{"objectName": "x"}, _e("w", "ex.Counter", {"count": 1}), _e("w", "ex.Label", {"text": "t"})]
    with caplog.at_level(logging.WARNING):
        root.set_session_state(twice, False)
    assert encode(root._snapshot()) == before and root.get_names() == ["x", "y", "z"]
    assert len(caplog.records) == 1


def test_a_dynamic_slot_state_of_two_entries_takes_the_first_with_a_warning(caplog):
    root = graphops.new_root()
    plot = root.request_object("p", "ex.Plot")
    plot.source.request_local_object("ex.Counter").count.set_state(4)
    two = [_e("", "ex.Label", {"text": "a"}), _e("q", "", None)]
    with caplog.at_level(logging.WARNING):
        plot.source.set_session_state(two)
    assert plot.source.get_session_state() == [_e("", "ex.Label", {"text": "a", "size": 12})]
    assert len(caplog.records) == 1


def test_under_replace_removals_come_before_creations_in_the_child_list_events():
    root = _root_from(_MAP_STATE)
    seen = []
    root.child_list_callbacks.add_immediate_callback(lambda: seen.append(root.get_names()))
    root.set_session_state([_e("w", "ex.Counter", {"count": 1}), {"objectName": "x"}], remove_missing=True)
    assert root.get_names() == ["w", "x"]
    assert [sorted(names) for names in seen] == [["x", "z"], ["x"], ["w", "x"]]


_MAP_STATE = [_e("x", state={"count": 1}), _e("y", state={"count": 2}), _e("z", "ex.Label", {"text": "t"})]


def test_a_client_whose_root_lacks_an_entry_reads_the_diff_whole_for_its_root():
    # The root skips an entry of a class its registry lacks, which _published
    # keeps; a diff read in place over _published does not name the root's
    # children in their places, so the root reads it whole: a class change
    # that creates the entry puts it where the diff names it.
    from linkstate.dynamic import ClassRegistry
    from linkstate.demo import Counter
    from linkstate.sync import ClientEngine

    registry = ClassRegistry()
    registry.register("ex.Counter", Counter)
    engine = ClientEngine("b", "s", registry, lambda m: None)
    engine.on_message(Message("Welcome", "s", "server", 0, [_e("c1", state={"count": 0})]), 0)
    created = [{"objectName": "c1"}, _e("lbl", "ex.Label", {"text": "t"}), _e("c2", state={"count": 0})]
    engine.on_message(Message("Diff", "s", "a", 1, created), 1)
    assert engine.root.get_names() == ["c1", "c2"]
    assert [e["objectName"] for e in engine._published] == ["c1", "lbl", "c2"]
    d = [{"objectName": "c1"}, _e("lbl", state={"count": 4}), {"objectName": "c2"}]
    assert _entry_diff(d, engine._published)[1] is _IN_PLACE
    engine.on_message(Message("Diff", "s", "a", 2, d), 2)
    assert engine.root.get_names() == ["c1", "lbl", "c2"]
    assert engine.root.get_object("lbl").count.get_state() == 4
    assert encode(engine._published) == encode(engine.root._snapshot())


# --- sharing: internal diffs share mentions, public results share nothing ----------------


def test_mutating_public_results_changes_no_kept_state_or_snapshot():
    rng = random.Random(21)
    root = graphops.build_random_session(rng, edits=8)
    root.scheduler.flush_frame()
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    for _ in range(20):
        graphops.random_edit(rng, root)
        root.scheduler.flush_frame()
    log.undo()
    root.scheduler.flush_frame()
    log.redo()
    root.scheduler.flush_frame()
    watched = [s for s in log._states if s is not history._MISSING] + [root._snapshot()]
    steps = [(s.forward, s.backward) for s in log.steps]
    before = [encode(s) for s in watched], encode_diff(steps)

    def scramble(node):
        if isinstance(node, dict):
            for v in list(node.values()):
                scramble(v)
            node.clear()
            node["objectName"] = "scrambled"
        elif isinstance(node, list):
            for v in node:
                scramble(v)
            node.append({"objectName": "extra"})

    n = len(log.steps)
    for k in range(n):
        scramble(diff(log.state_at(k), log.state_at(k + 1)))
        scramble(apply_diff(log.state_at(k), log.steps[k].forward, remove_missing=True))
        scramble(log.state_at(k))
    scramble(root.get_session_state())
    assert ([encode(s) for s in watched], encode_diff(steps)) == before
    assert log.verify() == []
    for k in (0, n // 2, n):
        log.jump_to(k)
        root.scheduler.flush_frame()
        assert encode(root.get_session_state()) == encode(log.state_at(k))
