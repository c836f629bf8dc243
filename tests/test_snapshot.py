"""Cached snapshots: correct after every edit, edit-sized to rebuild, never aliased.

Every live object caches its state as a plain snapshot that shares unchanged
subtrees with earlier ones. These tests pin three things: the cache never
goes stale (checked against a walk of the live objects that uses no cache),
the one-pass diff agrees with plain equivalence, and the work of an edit,
a record and a jump follows the edit, not the tree (deterministic counters,
no clocks).
"""

import hashlib
import json
import random

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
from linkstate.sync import ClientEngine, Message


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
    assert built == [plot.label.text, plot.label, plot, root]
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
        monkeypatch.setattr(history, "_diff_plain", statetree._diff_plain)
        plot.label.size.set_state(n)
        root.scheduler.flush_frame()
        # forward and backward: the root list, the plot, its 3 fields, the
        # label, its 2 fields; the other entries cost an identity check each
        assert len(log.steps) == 1
        assert len(calls) == 2 * (1 + 1 + 3 + 2)
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
