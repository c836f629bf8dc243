"""Cached snapshots: correct after every edit, edit-sized to rebuild, never aliased.

Every live object caches its state as a plain snapshot that shares unchanged
subtrees with earlier ones. These tests pin three things: the cache never
goes stale (checked against a walk of the live objects that uses no cache),
the one-pass diff agrees with plain equivalence, and the work of an edit,
a record and a jump follows the edit, not the tree (deterministic counters,
no clocks).
"""

import gc
import hashlib
import json
import random
import tracemalloc

import pytest

import graphops
import treegen
from linkstate import history, statetree
from linkstate.demo import build_demo_registry
from linkstate.dynamic import LinkableDynamicObject, LinkableHashMap
from linkstate.linkable import LinkableObject, LinkableVariable
from linkstate.statetree import (
    _apply,
    _diff_plain,
    _plain_equivalent,
    diff,
    encode_diff,
    to_plain,
)
from linkstate.sync import ClientEngine, Message, Relay


def _uncached(obj):
    """The plain state of a live object, read through its public accessors."""
    if isinstance(obj, LinkableVariable):
        return obj.get_state()
    if isinstance(obj, LinkableHashMap):
        return [
            {
                "objectName": name,
                "className": obj.get_class_name(name),
                "sessionState": _uncached(obj.get_object(name)),
            }
            for name in obj.get_names()
        ]
    if isinstance(obj, LinkableDynamicObject):
        if obj.local_class:
            return [{"objectName": "", "className": obj.local_class, "sessionState": _uncached(obj.get_object())}]
        if obj.global_name:
            return [{"objectName": obj.global_name, "className": "", "sessionState": None}]
        return []
    return {name: _uncached(obj.get_linkable_child(name)) for name in obj.child_names()}


def _text(plain):
    return json.dumps(plain, separators=(",", ":"))


def _container_ids(node, out=None):
    """Ids of every mutable container in a tree."""
    out = set() if out is None else out
    if isinstance(node, dict):
        out.add(id(node))
        for v in node.values():
            _container_ids(v, out)
    elif isinstance(node, list):
        out.add(id(node))
        for v in node:
            _container_ids(v, out)
    return out


def _assert_fresh(root, where):
    snap = root._snapshot()
    assert _text(snap) == _text(_uncached(root)), where
    assert snap == root.get_session_state(), where


# --- the cache follows every edit -----------------------------------------------


@pytest.mark.parametrize("block", range(6))
def test_snapshot_matches_the_live_tree_after_every_random_edit(block):
    # 300 seeds in 6 blocks. Between edits a random inner object is read
    # first, so caches are filled bottom-up in odd orders before the root.
    for seed in range(block * 50, block * 50 + 50):
        rng = random.Random(seed)
        root = graphops.new_root()
        for step in range(20):
            graphops.random_edit(rng, root)
            objects = list(graphops._walk(root))
            rng.choice(objects)._snapshot()
            _assert_fresh(root, f"seed {seed} step {step}")
            if step % 5 == 4:
                root.scheduler.flush_frame()


def test_snapshot_is_fresh_inside_a_delayed_update():
    # A delayed parent runs its callbacks only at resume, so a read in
    # between must not see the state from before the edit.
    root = graphops.new_root()
    plot = root.request_object("p", "ex.Plot")
    before = root._snapshot()
    root.callbacks.delay()
    plot.callbacks.delay()
    plot.label.text.set_state("during")
    assert root._snapshot()[0]["sessionState"]["label"]["text"] == "during"
    plot.callbacks.resume()
    root.callbacks.resume()
    assert before[0]["sessionState"]["label"]["text"] == ""  # the old snapshot is untouched
    _assert_fresh(root, "after resume")


def test_snapshot_follows_dispose_retarget_dangling_and_class_replacement():
    root = graphops.new_root()
    plot = root.request_object("p", "ex.Plot")
    _assert_fresh(root, "created")
    plot.source.request_global_object("c")  # dangling: no entry c yet
    _assert_fresh(root, "dangling")
    counter = root.request_object("c", "ex.Counter")
    _assert_fresh(root, "resolved")
    counter.count.set_state(3)  # the target is a callback child of the wrapper
    _assert_fresh(root, "target edited")
    root.request_object("c", "ex.Label")  # class replacement retargets the reference
    _assert_fresh(root, "class replaced")
    root.get_object("c").text.set_state("new")
    _assert_fresh(root, "new target edited")
    root.remove_object("c")  # dangles again
    _assert_fresh(root, "target removed")
    local = plot.source.request_local_object("ex.Counter")
    _assert_fresh(root, "local")
    local.count.set_state(9)
    _assert_fresh(root, "local edited")
    local.dispose()
    _assert_fresh(root, "local disposed")
    plot.label.dispose()  # a fixed child disposed out from under its parent
    _assert_fresh(root, "fixed child disposed")
    root.set_session_state([{"objectName": "q", "className": "ex.Counter", "sessionState": {"count": 1}}])
    _assert_fresh(root, "replaced by a full state")
    assert plot.disposed


def test_child_list_observers_read_the_state_after_a_removal():
    # child_list_callbacks run at once, before the map's own trigger; the
    # state they read must already lack the removed entry.
    root = graphops.new_root()
    root.request_object("a", "ex.Counter")
    root.request_object("b", "ex.Label")
    root._snapshot()
    seen = []
    root.child_list_callbacks.add_immediate_callback(
        lambda: seen.append(([e["objectName"] for e in root._snapshot()], root.get_names()))
    )
    root.remove_object("a")
    root.set_session_state([{"objectName": "c", "className": "ex.Counter"}])
    assert seen[0] == (["b"], ["b"])
    for names, live in seen:
        assert names == live
    _assert_fresh(root, "after removals")


def test_class_replacement_shows_even_when_the_child_snapshot_is_the_same_object():
    # Two classes whose fresh instances snapshot to the same interned value.
    from linkstate.dynamic import ClassRegistry
    from linkstate.linkable import LinkableNumber

    registry = ClassRegistry()
    registry.register("a.Zero", lambda: LinkableNumber(default=0))
    registry.register("b.Zero", lambda: LinkableNumber(default=0))
    root = LinkableHashMap(registry)
    root.request_object("x", "a.Zero")
    first = root._snapshot()
    root.request_object("x", "b.Zero")
    assert root._snapshot()[0]["sessionState"] is first[0]["sessionState"]
    _assert_fresh(root, "class replaced")
    assert root._snapshot()[0]["className"] == "b.Zero"


def test_empty_containers_read_as_empty_lists():
    root = graphops.new_root()
    assert root.get_session_state() == [] and statetree.encode(root.get_session_state()) == "[]"
    plot = root.request_object("p", "ex.Plot")
    assert plot.source.get_session_state() == []
    assert root._snapshot()[0]["sessionState"]["source"] == []


def test_get_session_state_is_a_fresh_copy_of_the_snapshot():
    rng = random.Random(7)
    root = graphops.build_random_session(rng, edits=15)
    snap = root._snapshot()
    encoded = statetree.encode(snap)
    first = root.get_session_state()
    second = root.get_session_state()
    assert not _container_ids(first) & _container_ids(snap)
    assert not _container_ids(first) & _container_ids(second)
    assert statetree.encode(first) == statetree.encode(second) == encoded
    assert root._snapshot() is snap  # reading changes nothing
    for entry in first:  # changing the copy leaves the snapshot as it was
        entry["sessionState"]["label"] = {"text": "changed"} if isinstance(entry["sessionState"], dict) else 0
    first.clear()
    assert root._snapshot() is snap
    assert statetree.encode(snap) == encoded


# --- the one-pass diff --------------------------------------------------------------


def _diff_pairs(rng, n):
    for i in range(n):
        a = to_plain(treegen.random_tree(rng))
        b = to_plain(treegen.mutate(rng, a) if i % 2 else treegen.random_tree(rng))
        yield a, b
        yield a, a
        yield a, to_plain(a)


# Plain entry lists may leave keys out; entries that differ only in which
# keys they write are not equivalent, so their diff is not empty.
PARTIAL_ENTRY_PAIRS = [
    ([{"objectName": "x", "className": "c"}], [{"objectName": "x", "className": "c", "sessionState": None}]),
    ([{"objectName": "x"}], [{"objectName": "x", "className": ""}]),
    ([{"className": "c", "sessionState": 1}], [{"objectName": "", "className": "c", "sessionState": 1}]),
]
# They may also repeat a name, which defeats matching by name (and which no
# applied tree holds, so these pairs are only diffed).
_TWICE = [{"objectName": "y", "className": "c"}, {"objectName": "y", "className": "c"}]
REPEATED_NAME_PAIRS = [(_TWICE, json.loads(json.dumps(_TWICE))), (_TWICE, _TWICE[:1]), (_TWICE[:1], _TWICE)]


def test_diff_is_empty_exactly_when_equivalent_and_round_trips():
    rng = random.Random(20261018)
    pairs = list(_diff_pairs(rng, 500)) + PARTIAL_ENTRY_PAIRS + [(b, a) for a, b in PARTIAL_ENTRY_PAIRS]
    for i, (a, b) in enumerate(pairs):
        d = _diff_plain(a, b)
        assert (d == {}) == _plain_equivalent(a, b), f"pair {i}"
        for remove_missing in (False, True):
            # applied entries always come out in the three-key form
            assert _plain_equivalent(_apply(to_plain(a), d, remove_missing), to_plain(b)), f"pair {i}"


def test_entry_lists_with_a_repeated_name_diff_empty_exactly_when_equal():
    for a, b in REPEATED_NAME_PAIRS:
        assert (_diff_plain(a, b) == {}) == _plain_equivalent(a, b)


def test_shared_subtrees_diff_like_copies():
    # Snapshots before and after an edit share their unchanged subtrees; the
    # identity short-cut must give the diff a walk over copies gives.
    for seed in range(60):
        rng = random.Random(seed)
        root = graphops.new_root()
        before = root._snapshot()
        for step in range(15):
            graphops.random_edit(rng, root)
            after = root._snapshot()
            for a, b in ((before, after), (after, before)):
                assert encode_diff(_diff_plain(a, b)) == encode_diff(_diff_plain(to_plain(a), to_plain(b))), (
                    f"seed {seed} step {step}"
                )
            before = after


# sha256 over encode_diff(diff(a, b)) and encode_diff(diff(b, a)), one line
# each, for the 1000 pairs of acceptance criterion 3; recorded before the
# one-pass diff.
CRITERION_3_DIFFS_SHA256 = "030f728eb03607ae5da33eaeaaa4dd7a9dc3bfff61075f2a1a6e1532c1da024e"
# sha256 over the live state after undos and two jumps, every state_at(k) and
# the export of 200 history scripts drawn like those of acceptance criterion
# 6; recorded before the log kept per-step states.
HISTORY_SHA256 = "1a9848c6cfd2c4d1132dd99f70e670403a853a4447b9414b41dca18d1db3d4c0"


def test_criterion_3_corpus_diffs_are_unchanged():
    h = hashlib.sha256()
    rng = random.Random(31415)
    for case in range(1000):
        a = treegen.random_tree(rng)
        b = treegen.mutate(rng, a) if case % 2 else treegen.random_tree(rng)
        h.update(encode_diff(diff(a, b)).encode() + b"\n" + encode_diff(diff(b, a)).encode() + b"\n")
    assert h.hexdigest() == CRITERION_3_DIFFS_SHA256


def test_history_navigation_and_export_bytes_are_unchanged():
    h = hashlib.sha256()
    rng = random.Random(424242)
    for _ in range(200):
        root = graphops.new_root()
        log = history.HistoryLog(clock_ms=lambda: 0)
        log.attach(root)
        for _ in range(rng.randint(2, 10)):
            graphops.random_edit(rng, root)
            root.scheduler.flush_frame()
        if log.cursor:
            k = rng.randrange(log.cursor)
            for _ in range(log.cursor - k):
                log.undo()
                root.scheduler.flush_frame()
            log.jump_to(len(log.steps))
            root.scheduler.flush_frame()
            log.jump_to(k)
            root.scheduler.flush_frame()
            h.update(statetree.encode(root.get_session_state()).encode() + b"\n")
            for j in range(len(log.steps) + 1):
                h.update(statetree.encode(log.state_at(j)).encode() + b"\n")
        h.update(log.export_json().encode() + b"\n")
    assert h.hexdigest() == HISTORY_SHA256


# --- work counters: the cost of an edit follows the edit -----------------------------------


def _plots(n):
    root = LinkableHashMap(build_demo_registry())
    for i in range(n):
        root.request_object(f"plot{i:05d}", "ex.Plot")
    root.scheduler.flush_frame()
    return root


@pytest.fixture(scope="module")
def big_root():
    return _plots(5000)


def _count_builds(monkeypatch):
    built = []
    for cls in (LinkableObject, LinkableVariable, LinkableHashMap, LinkableDynamicObject):
        real = cls.__dict__["_build_snapshot"]

        def counted(self, _real=real):
            out = _real(self)
            built.append(self)
            return out

        monkeypatch.setattr(cls, "_build_snapshot", counted)
    return built


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_field_edit_rebuilds_only_its_path(monkeypatch, big_root):
    root = big_root
    root._snapshot()
    plot = root.get_object("plot02500")
    built = _count_builds(monkeypatch)
    plot.label.text.set_state("edited")
    snap = root._snapshot()
    # The variable fills its own slot as it takes the value; the rest of
    # the path is built on the read.
    assert built == [plot.label, plot, root]
    assert snap[2500]["sessionState"]["label"]["text"] == "edited"
    built.clear()
    assert root._snapshot() is snap
    assert built == []


@pytest.mark.parametrize("n", [50, 5000])
def test_record_diff_calls_do_not_grow_with_the_tree(monkeypatch, n, big_root):
    root = big_root if n == 5000 else _plots(n)
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    try:
        plot = root.get_object(f"plot{n // 2:05d}")
        calls = _count_calls(monkeypatch, statetree, "_diff_plain")
        walks = _count_calls(monkeypatch, statetree, "_diff_both")
        matched = _count_calls(monkeypatch, statetree, "_diff_matched")
        monkeypatch.setattr(history, "_diff_both", statetree._diff_both)
        plot.label.size.set_state(n)
        root.scheduler.flush_frame()
        # One walk of the root list for both diffs; the one changed entry is
        # diffed forward and backward: the plot, its 3 fields, the label, its
        # 2 fields. The other entries cost an identity check each.
        assert len(log.steps) == 1
        assert len(walks) == 1
        assert len(matched) == 2
        assert len(calls) == 2 * (1 + 3 + 2)
    finally:
        log.detach()


def test_unchanged_entries_share_one_mention_in_forward_and_backward(big_root):
    root = big_root
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    try:
        root.get_object("plot03000").title.set_state("shared")
        root.scheduler.flush_frame()
        step = log.steps[0]
        assert len(step.forward) == len(step.backward) == 5000
        for i, (f, b) in enumerate(zip(step.forward, step.backward)):
            if i == 3000:
                assert f is not b
                assert f["sessionState"] == {"title": "shared"} and b["sessionState"] == {"title": ""}
            else:
                assert f is b and f == {"objectName": f"plot{i:05d}"}
    finally:
        log.detach()


def test_jump_on_a_recorded_log_replays_nothing(monkeypatch):
    rng = random.Random(11)
    root = graphops.build_random_session(rng, edits=4)
    root.scheduler.flush_frame()
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    while len(log.steps) < 30:
        graphops.random_edit(rng, root)
        root.scheduler.flush_frame()
    replays = _count_calls(monkeypatch, history, "_apply")
    for target in (0, 7, 30, 15, 29):
        log.jump_to(target)
        root.scheduler.flush_frame()
        assert _plain_equivalent(root._snapshot(), log.state_at(target))
    assert replays == []
    imported = history.HistoryLog.import_json(log.export_json())
    imported.state_at(12)
    assert len(replays) == 12  # a log read from JSON still replays from its baseline


@pytest.mark.parametrize("seed", range(10))
def test_kept_states_match_a_replay_after_undo_and_new_branches(seed):
    rng = random.Random(seed)
    root = graphops.new_root()
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    for _ in range(40):
        if log.can_undo and rng.random() < 0.3:
            for _ in range(rng.randint(1, log.cursor)):
                log.undo()
                root.scheduler.flush_frame()
        graphops.random_edit(rng, root)
        root.scheduler.flush_frame()
    assert log.verify() == []
    replayed = history.HistoryLog.import_json(log.export_json())
    for k in range(len(log.steps) + 1):
        assert _plain_equivalent(log.state_at(k), replayed.state_at(k)), f"step {k}"


def test_edits_absorbed_off_the_log_keep_kept_states_true_to_the_log():
    # Edits made while capture is paused, or before an undo in the same
    # frame, are absorbed, not recorded: the states after them must still be the
    # baseline plus the forward diffs, as a log read from JSON replays them.
    root = graphops.new_root()
    plot = root.request_object("p", "ex.Plot")
    other = root.request_object("q", "ex.Plot")
    root.scheduler.flush_frame()
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    plot.label.text.set_state("one")
    root.scheduler.flush_frame()
    log.capturing = False
    other.label.text.set_state("absorbed while paused")
    root.scheduler.flush_frame()
    log.capturing = True
    plot.label.text.set_state("two")
    root.scheduler.flush_frame()
    plot.label.text.set_state("three")
    root.scheduler.flush_frame()
    other.label.text.set_state("absorbed by an undo in the same frame")
    log.undo()
    root.scheduler.flush_frame()
    plot.label.text.set_state("four")
    root.scheduler.flush_frame()
    assert len(log.steps) == 3
    assert log.verify() == []
    imported = history.HistoryLog.import_json(log.export_json())
    assert imported.verify() == []
    for k in range(len(log.steps) + 1):
        assert statetree.encode(log.state_at(k)) == statetree.encode(imported.state_at(k)), f"step {k}"
    assert log.state_at(2)[1]["sessionState"]["label"]["text"] == ""
    for k in (3, 1):
        log.jump_to(k)
        root.scheduler.flush_frame()
        assert statetree.encode(root.get_session_state()) == statetree.encode(imported.state_at(k))
    plot.label.text.set_state("five")  # back on the log: records are kept again
    root.scheduler.flush_frame()
    assert log._states[2] is root._snapshot()
    assert log.verify() == []


# --- no aliasing -----------------------------------------------------------------------------


def test_kept_and_handed_out_snapshots_are_never_mutated():
    rng = random.Random(5)
    root = graphops.build_random_session(rng, edits=6)
    root.scheduler.flush_frame()
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    handed = []
    while len(log.steps) < 25:
        graphops.random_edit(rng, root)
        root.scheduler.flush_frame()
        handed.append(root._snapshot())
    watched = handed + log._states + [log._last]
    before = [_text(s) for s in watched]

    n = len(log.steps)
    for _ in range(5):
        log.undo()
        root.scheduler.flush_frame()
    log.redo()
    root.scheduler.flush_frame()
    for target in (3, n, 0, n // 2):
        log.jump_to(target)
        root.scheduler.flush_frame()
    assert log.verify() == []
    log.state_at(n)
    assert [_text(s) for s in watched] == before
    assert _text(log._last) == _text(root._snapshot())


def test_client_shadow_never_shares_with_the_snapshot():
    # _published may share subtrees with snapshots (after a flush it is one),
    # so what matters is that no version of it is ever changed afterwards.
    sent = []
    engine = ClientEngine("a", "s", build_demo_registry(), sent.append)
    engine.on_message(Message("Welcome", "s", "server", 0, []), 0)
    rng = random.Random(3)
    handed = []
    shadows = []
    seq = 0
    for step in range(40):
        if step % 3 == 2:
            seq += 1
            remote = [{"objectName": f"r{step}", "className": "ex.Counter", "sessionState": {"count": step}}]
            engine.on_message(Message("Diff", "s", "b", seq, remote), step)
        else:
            graphops.random_edit(rng, engine.root)
        engine.flush(step)
        while sent:  # the relay echoes each of our diffs back as an Ack
            m = sent.pop(0)
            if m.kind == "Diff":
                seq += 1
                engine.on_message(Message("Ack", "s", "a", seq, json.loads(encode_diff(m.payload))), step)
        snap = engine.root._snapshot()
        handed.append((snap, _text(snap)))
        shadows.append((engine._published, _text(engine._published)))
        assert _plain_equivalent(engine._published, snap), f"step {step}"
    assert [_text(s) for s, _ in handed] == [t for _, t in handed]
    assert [_text(s) for s, _ in shadows] == [t for _, t in shadows]


# --- built entry lists: one cheap pass over the root entries ------------------------------


def _counted_snapshot_reads(monkeypatch):
    """The objects whose _snapshot() is called, built or cached."""
    read = []
    real = LinkableObject._snapshot

    def counted(self):
        read.append(self)
        return real(self)

    monkeypatch.setattr(LinkableObject, "_snapshot", counted)
    return read


def test_edit_flush_and_record_check_no_entry_shape_and_read_only_the_edit(monkeypatch, big_root):
    root = big_root
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    try:
        plot = root.get_object("plot01234")
        shaped = _count_calls(monkeypatch, statetree, "_entry_shaped")
        read = _counted_snapshot_reads(monkeypatch)
        plot.label.text.set_state("edited")
        root.scheduler.flush_frame()
        assert len(log.steps) == 1
        # Every entry list on the way is one a snapshot built: no entry of
        # any of them has its shape checked.
        assert shaped == []
        # Below the root only the edited path is read: the plot, its label
        # and the text are rebuilt, the plot's other children read from
        # their caches; the other 4,999 entries are not looked at.
        below = [obj for obj in read if obj is not root]
        path = (plot, plot.title, plot.label, plot.label.text, plot.label.size, plot.source)
        assert {id(obj) for obj in below} <= {id(obj) for obj in path}
        assert len(below) <= 10
        assert log.steps[0].forward[1234]["sessionState"] == {"label": {"text": "edited"}}
    finally:
        log.detach()


def test_own_trigger_rebuilds_the_root_list_and_a_child_edit_shares_the_rest():
    # The map's own trigger (an entry came, went or moved) rebuilds its list
    # from its children; a child's alone re-reads that child.
    root = _plots(4)
    old = root._snapshot()
    root.set_name_order(["plot00002"])
    assert [e["objectName"] for e in root._snapshot()] == ["plot00002", "plot00000", "plot00001", "plot00003"]
    root.request_object("plot00001", "ex.Label")
    snap = root._snapshot()
    assert [e["className"] for e in snap] == ["ex.Plot", "ex.Plot", "ex.Label", "ex.Plot"]
    root.get_object("plot00003").title.set_state("t")
    after = root._snapshot()
    assert after[3]["sessionState"]["title"] == "t"
    assert [a is b for a, b in zip(snap, after)] == [True, True, True, False]
    assert old[0]["objectName"] == "plot00000"  # an earlier snapshot is never changed
    _assert_fresh(root, "after reorder, replacement and edit")


def test_relay_apply_checks_no_base_entry_and_parses_once(monkeypatch):
    relay = Relay()
    relay.handle(Message("Hello", "s", "a"))
    relay.handle(Message("Diff", "s", "a", 0, _counter_entries(5000)))
    # what a client sends for one edit: every entry mentioned, one changed
    one = [{"objectName": f"c{i:04d}"} for i in range(5000)]
    one[2500] = {"objectName": "c2500", "className": "ex.Counter", "sessionState": {"count": 1}}
    shaped = _count_calls(monkeypatch, statetree, "_entry_shaped")
    parses = _count_calls(monkeypatch, statetree, "_entry_item")
    assert len(relay.handle(Message("Diff", "s", "a", 0, one))) == 1
    assert shaped == []
    assert len(parses) == 1  # the one changed item; the 4,999 mentions are not parsed
    assert relay.session_state("s")[2500]["sessionState"] == {"count": 1}


def test_client_parses_an_inbound_root_diff_once(monkeypatch):
    engine = ClientEngine("a", "s", build_demo_registry(), lambda m: None)
    engine.on_message(Message("Welcome", "s", "server", 0, _counter_entries(1000)), 0)
    engine.flush(0)
    one = [{"objectName": f"c{i:04d}"} for i in range(1000)]
    one[500] = {"objectName": "c0500", "className": "ex.Counter", "sessionState": {"count": 9}}
    shaped = _count_calls(monkeypatch, statetree, "_entry_shaped")
    parses = _count_calls(monkeypatch, statetree, "_entry_item")
    engine.on_message(Message("Diff", "s", "b", 1, one), 1)
    assert len(parses) == 1  # one read of the changed item feeds the root and _published
    assert shaped == []
    assert engine.root.get_object("c0500").count.get_state() == 9
    assert _plain_equivalent(engine._published, engine.root._snapshot())


@pytest.mark.parametrize("create", [False, True], ids=["paired", "by-name"])
def test_a_client_with_unpublished_edits_parses_an_inbound_diff_once(monkeypatch, create):
    # one local edit not yet published: c0100's count, or a new counter
    sent = []
    engine = ClientEngine("a", "s", build_demo_registry(), sent.append)
    engine.on_message(Message("Welcome", "s", "server", 0, _counter_entries(1000)), 0)
    engine.flush(0)
    local = "mine" if create else "c0100"
    if create:
        engine.root.request_object(local, "ex.Counter")
    engine.root.get_object(local).count.set_state(5)
    assert engine.root._snapshot() is not engine._published
    one = [{"objectName": f"c{i:04d}"} for i in range(1000)]
    one[500] = {"objectName": "c0500", "className": "ex.Counter", "sessionState": {"count": 9}}
    parses = _count_calls(monkeypatch, statetree, "_entry_item")
    by_name = _count_calls(monkeypatch, statetree, "_apply_entry_diff_by_name")
    engine.on_message(Message("Diff", "s", "b", 1, one), 1)
    assert len(parses) == 1  # the item read over _published feeds the root too
    # a local creation leaves the snapshot unpaired with _published: by name
    assert len(by_name) == (1 if create else 0)
    assert engine.root.get_object("c0500").count.get_state() == 9
    assert _plain_equivalent(engine._published, statetree.apply_diff(_counter_entries(1000), one))
    published = engine._published
    engine.flush(2)
    (msg,) = sent
    assert engine.root.get_object(local).count.get_state() == 5
    # the local edit alone forms the next flush's diff
    changed = [x for x in msg.payload if x.keys() != {"objectName"}]
    assert [x["objectName"] for x in changed] == [local]
    assert _plain_equivalent(statetree.apply_diff(published, msg.payload), engine.root._snapshot())


def test_one_change_parses_one_item_in_the_relay_the_client_and_an_undo(monkeypatch, big_root):
    one = [{"objectName": f"c{i:04d}"} for i in range(5000)]
    one[2500] = {"objectName": "c2500", "className": "ex.Counter", "sessionState": {"count": 1}}
    relay = Relay()
    relay.handle(Message("Hello", "s", "a"))
    relay.handle(Message("Diff", "s", "a", 0, _counter_entries(5000)))
    engine = ClientEngine("b", "s", build_demo_registry(), lambda m: None)
    engine.on_message(Message("Welcome", "s", "server", 0, _counter_entries(5000)), 0)
    engine.flush(0)
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(big_root)
    try:
        big_root.get_object("plot04321").label.size.set_state(99)
        big_root.scheduler.flush_frame()
        parses = _count_calls(monkeypatch, statetree, "_entry_item")
        relay.handle(Message("Diff", "s", "a", 0, one))
        assert len(parses) == 1
        engine.on_message(Message("Diff", "s", "a", 1, one), 1)
        assert len(parses) == 2
        log.undo()  # reaches the kept state: no diff is read
        big_root.scheduler.flush_frame()
        assert len(parses) == 2
        assert relay.session_state("s")[2500]["sessionState"] == {"count": 1}
        assert engine.root.get_object("c2500").count.get_state() == 1
        assert big_root.get_object("plot04321").label.size.get_state() == 12
    finally:
        log.detach()


def test_consecutive_steps_share_every_unchanged_item(big_root):
    root = big_root
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    try:
        for i, name in enumerate(("plot00010", "plot04990", "plot00010")):
            root.get_object(name).title.set_state(f"shared {i}")
            root.scheduler.flush_frame()
        steps = log.steps
        assert len(steps) == 3
        for k in range(2):
            changed = {10, 4990}
            for i in range(5000):
                if i in changed:
                    continue
                assert steps[k].forward[i] is steps[k + 1].forward[i]
                assert steps[k].backward[i] is steps[k + 1].backward[i] is steps[k].forward[i]
    finally:
        log.detach()


def test_a_recorded_one_field_step_retains_two_pointer_lists_and_the_path(big_root):
    # A step keeps its two diffs and the snapshot after it. Unchanged entries
    # cost one shared pointer in each of the three lists (3 x 40 KB at 5,000
    # entries); one mention dict per entry per step would be about 1 MB.
    root = big_root
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    try:
        plot = root.get_object("plot01000")
        plot.title.set_state("first")  # the first record builds the mention list
        root.scheduler.flush_frame()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plot.title.set_state("second")
            root.scheduler.flush_frame()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log.steps) == 2
        assert retained < 128 * 1024
    finally:
        log.detach()


def _counter_entries(n):
    return [{"objectName": f"c{i:04d}", "className": "ex.Counter", "sessionState": {"count": 0}} for i in range(n)]


# --- apply by position: the match by name only where names moved -------------------------


def test_one_change_applies_by_position_in_the_relay_the_client_and_an_undo(monkeypatch, big_root):
    by_name = _count_calls(monkeypatch, statetree, "_apply_entry_diff_by_name")
    relay = Relay()
    relay.handle(Message("Hello", "s", "a"))
    relay.handle(Message("Diff", "s", "a", 0, _counter_entries(5000)))
    one = [{"objectName": f"c{i:04d}"} for i in range(5000)]
    one[2500] = {"objectName": "c2500", "className": "ex.Counter", "sessionState": {"count": 1}}
    by_name.clear()
    assert len(relay.handle(Message("Diff", "s", "a", 0, one))) == 1
    assert by_name == []

    engine = ClientEngine("a", "s", build_demo_registry(), lambda m: None)
    engine.on_message(Message("Welcome", "s", "server", 0, _counter_entries(5000)), 0)
    engine.flush(0)
    by_name.clear()
    engine.on_message(Message("Diff", "s", "b", 1, one), 1)
    assert by_name == []
    assert engine._published[2500]["sessionState"] == {"count": 1}

    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(big_root)
    try:
        big_root.get_object("plot04000").title.set_state("to undo")
        big_root.scheduler.flush_frame()
        by_name.clear()
        log.undo()
        big_root.scheduler.flush_frame()
        assert by_name == []
        assert big_root.get_object("plot04000").title.get_state() == ""
    finally:
        log.detach()


def test_a_reorder_or_a_removal_matches_by_name_once(monkeypatch):
    by_name = _count_calls(monkeypatch, statetree, "_apply_entry_diff_by_name")
    full = _counter_entries(50)
    moved = [full[30]] + full[:30] + full[31:]
    for target in (moved, full[:10] + full[11:]):
        relay = Relay()
        relay.handle(Message("Hello", "s", "a"))
        relay.handle(Message("Diff", "s", "a", 0, full))
        by_name.clear()
        relay.handle(Message("Diff", "s", "a", 0, diff(full, target)))
        assert len(by_name) == 1
        assert statetree.encode(relay.session_state("s")) == statetree.encode(target)


# --- navigation lands on the log's kept state ------------------------------------------------


def _one_field_steps(root, log, names):
    for i, name in enumerate(names):
        root.get_object(name).label.size.set_state(2000 + i)
        root.scheduler.flush_frame()
    assert log.cursor == len(names)


def test_an_undo_compares_nothing_and_the_next_record_only_its_edit(monkeypatch, big_root):
    root = big_root
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    try:
        _one_field_steps(root, log, ("plot00100", "plot02500", "plot04900", "plot02500"))
        matched = _count_calls(monkeypatch, statetree, "_diff_matched")
        parses = _count_calls(monkeypatch, statetree, "_entry_item")
        for step in (log.undo, log.redo, log.undo, log.undo):
            step()
            root.scheduler.flush_frame()
            assert root._snapshot() is log._states[log.cursor]
        assert matched == [] and parses == []
        # As with no undo (test_record_diff_calls_do_not_grow_with_the_tree):
        # the one changed entry, forward and backward.
        root.get_object("plot01234").title.set_state("after undo")
        root.scheduler.flush_frame()
        assert len(matched) == 2
        assert log.cursor == 3 and root._snapshot() is log._states[3]
    finally:
        log.detach()


def test_a_jump_compares_only_the_entries_its_steps_changed(monkeypatch, big_root):
    root = big_root
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    try:
        _one_field_steps(root, log, [f"plot{i:05d}" for i in (10, 1010, 2010, 3010, 4010, 4990)])
        matched = _count_calls(monkeypatch, statetree, "_diff_matched")
        parses = _count_calls(monkeypatch, statetree, "_entry_item")
        reached = _count_calls(monkeypatch, LinkableObject, "_reach_parts")
        for target in (2, 5, 0, 6, 3):
            m = abs(log.cursor - target)  # one-field steps between the two kept states
            reached.clear()
            log.jump_to(target)
            root.scheduler.flush_frame()
            # The kept state is reached, not diffed: below the root only the
            # entries the steps changed are walked, each down its one path.
            assert matched == [] and parses == [], f"jump to {target}"
            assert len(reached) == 2 * m, f"jump to {target}"  # each plot and its label
            assert root._snapshot() is log._states[target]
            assert statetree.encode(root._snapshot()) == statetree.encode(log.state_at(target))
    finally:
        log.detach()


@pytest.mark.parametrize("n", [50, 5000])
def test_verify_compares_each_step_by_identity(monkeypatch, n, big_root):
    root = big_root if n == 5000 else _plots(n)
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    try:
        _one_field_steps(root, log, [f"plot{i * n // 5:05d}" for i in range(5)])
        matched = _count_calls(monkeypatch, statetree, "_diff_matched")
        leaves = _count_calls(monkeypatch, statetree, "_plain_equivalent")
        assert log.verify() == []
        # Per step: the one changed entry, once for the inverse and once for
        # the kept state; a whole-tree compare would reach every leaf.
        assert len(matched) == 2 * 5
        assert len(leaves) <= 2 * 5
    finally:
        log.detach()
