"""Undo log: recording, navigation, inverse replay, persistence."""

import random

import pytest

from linkstate import encode, state_equivalent
from linkstate.callbacks import FrameScheduler
from linkstate.demo import build_demo_registry
from linkstate.dynamic import LinkableHashMap
from linkstate.errors import (
    AlreadyAttached,
    IndexOutOfRange,
    NothingToRedo,
    NothingToUndo,
    ParseError,
    VersionMismatch,
)
from linkstate.history import HistoryLog
from linkstate.linkable import LinkableObject, LinkableVariable

from graphops import build_random_session, new_root, random_edit


def fixed_clock(start=1000, step=10):
    t = {"now": start - step}

    def tick():
        t["now"] += step
        return t["now"]

    return tick


def make_counter_root():
    root = new_root()
    root.request_object("a", "ex.Counter")
    root.scheduler.flush_frame()
    return root


def attach_fresh(root):
    log = HistoryLog(clock_ms=fixed_clock())
    log.attach(root)
    return log


def edit_count(root, name, value):
    root.get_object(name).count.set_state(value)
    root.scheduler.flush_frame()


class TestRecording:
    def test_attach_snapshots_baseline(self):
        root = make_counter_root()
        log = attach_fresh(root)
        assert state_equivalent(log.baseline, root.get_session_state())
        assert log.steps == ()
        assert log.cursor == 0

    def test_one_step_per_flush(self):
        root = make_counter_root()
        log = attach_fresh(root)
        a = root.get_object("a")
        a.count.set_state(1)
        a.count.set_state(2)
        root.request_object("b", "ex.Label")
        root.scheduler.flush_frame()
        assert len(log.steps) == 1
        assert log.cursor == 1

    def test_separate_flushes_separate_steps(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        edit_count(root, "a", 2)
        assert len(log.steps) == 2
        assert [s.timestamp_ms for s in log.steps] == [1000, 1010]

    def test_no_change_records_nothing(self):
        root = make_counter_root()
        log = attach_fresh(root)
        root.get_object("a").count.set_state(0)  # equivalent, no trigger
        root.scheduler.flush_frame()
        root.callbacks.trigger()  # spurious trigger, no state delta
        root.scheduler.flush_frame()
        assert log.steps == ()

    def test_attach_twice_rejected(self):
        root = make_counter_root()
        log = attach_fresh(root)
        with pytest.raises(AlreadyAttached):
            log.attach(root)

    def test_detach_stops_recording(self):
        root = make_counter_root()
        log = attach_fresh(root)
        log.detach()
        log.detach()  # detaching a detached log does nothing
        edit_count(root, "a", 5)
        assert log.steps == ()
        with pytest.raises(ValueError, match="not attached"):
            log.jump_to(0)

    def test_labels_tag_next_step_only(self):
        root = make_counter_root()
        log = attach_fresh(root)
        log.set_next_label("bump")
        edit_count(root, "a", 1)
        edit_count(root, "a", 2)
        assert [s.label for s in log.steps] == ["bump", ""]

    def test_capturing_pause_absorbs_silently(self):
        root = make_counter_root()
        log = attach_fresh(root)
        log.capturing = False
        assert log.capturing is False
        edit_count(root, "a", 9)
        assert log.steps == ()
        log.capturing = True
        assert log.capturing is True
        edit_count(root, "a", 10)
        assert len(log.steps) == 1
        # the recorded step spans only the captured edit
        log.undo()
        assert root.get_object("a").count.get_state() == 9

    def test_turning_capture_on_while_on_keeps_an_edit_not_yet_recorded(self):
        root = make_counter_root()
        log = attach_fresh(root)
        root.get_object("a").count.set_state(1)
        log.capturing = True
        root.scheduler.flush_frame()
        assert len(log.steps) == 1

    def test_capture_resumes_on_a_detached_log_and_over_a_disposed_root(self):
        detached = HistoryLog()
        detached.capturing = False
        detached.capturing = True
        root = make_counter_root()
        log = attach_fresh(root)
        log.capturing = False
        root.dispose()
        log.capturing = True
        assert log.capturing is True and log.steps == ()

    def test_an_undo_merges_its_step_into_a_root_whose_entries_changed_while_paused(self):
        # The root's entry list is a new one of the same length, so the step's
        # backward diff, built against the recorded list, is read whole.
        root = make_counter_root()
        root.request_object("b", "ex.Counter")
        root.scheduler.flush_frame()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        log.capturing = False
        root.remove_object("b")
        root.request_object("c", "ex.Counter")
        root.scheduler.flush_frame()
        log.capturing = True
        log.undo()
        assert root.get_object("a").count.get_state() == 0

    def test_an_undo_over_a_root_off_the_log_keeps_an_entry_created_while_paused(self):
        root = make_counter_root()
        root.request_object("b", "ex.Counter")
        root.scheduler.flush_frame()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        log.capturing = False
        root.remove_object("b")
        root.request_object("c", "ex.Counter")
        root.scheduler.flush_frame()
        log.capturing = True
        log.undo()
        assert root.get_object("a").count.get_state() == 0
        assert root.get_names() == ["a", "c"]

    def test_a_log_over_a_disposed_root_refuses_to_navigate_and_detaches(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        root.dispose()
        with pytest.raises(ValueError, match="not attached to a live root"):
            log.undo()
        log.detach()
        log.detach()  # a detached log detaches again as a no-op
        assert log.cursor == 1


class TestNavigation:
    def test_undo_redo_restore_exact_states(self):
        root = make_counter_root()
        snapshots = [encode(root.get_session_state())]
        log = attach_fresh(root)
        for v in (1, 2, 3):
            edit_count(root, "a", v)
            snapshots.append(encode(root.get_session_state()))

        log.undo()
        assert encode(root.get_session_state()) == snapshots[2]
        log.undo()
        assert encode(root.get_session_state()) == snapshots[1]
        log.redo()
        assert encode(root.get_session_state()) == snapshots[2]
        log.undo()
        log.undo()
        assert encode(root.get_session_state()) == snapshots[0]
        assert not log.can_undo
        assert log.can_redo

    def test_undo_restores_removed_object(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 7)
        root.remove_object("a")
        root.scheduler.flush_frame()
        assert root.get_names() == []
        log.undo()
        assert root.get_names() == ["a"]
        assert root.get_object("a").count.get_state() == 7

    def test_undo_is_not_re_recorded(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        edit_count(root, "a", 2)
        log.undo()
        root.scheduler.flush_frame()
        assert len(log.steps) == 2
        assert log.cursor == 1

    def test_new_edit_truncates_redo_tail(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        edit_count(root, "a", 2)
        log.undo()
        edit_count(root, "a", 5)
        assert len(log.steps) == 2
        assert log.cursor == 2
        assert not log.can_redo
        log.undo()
        assert root.get_object("a").count.get_state() == 1

    def test_bounds_raise(self):
        root = make_counter_root()
        log = attach_fresh(root)
        with pytest.raises(NothingToUndo):
            log.undo()
        with pytest.raises(NothingToRedo):
            log.redo()
        with pytest.raises(IndexOutOfRange):
            log.jump_to(1)
        with pytest.raises(IndexOutOfRange):
            log.jump_to(-1)

    def test_jump_matches_sequential_undos(self):
        rng = random.Random(60)
        root = build_random_session(rng, edits=10)
        log = HistoryLog(clock_ms=fixed_clock())
        log.attach(root)
        for _ in range(8):
            random_edit(rng, root)
            root.scheduler.flush_frame()
        twin_states = [encode(log.state_at(i)) for i in range(len(log.steps) + 1)]
        n = len(log.steps)
        log.jump_to(0)
        assert encode(root.get_session_state()) == twin_states[0]
        assert log.cursor == 0
        log.jump_to(n)
        assert encode(root.get_session_state()) == twin_states[n]
        mid = n // 2
        log.jump_to(mid)
        assert encode(root.get_session_state()) == twin_states[mid]
        root.scheduler.flush_frame()
        assert len(log.steps) == n  # jumps record nothing

    def test_jump_to_cursor_is_noop(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        before = encode(root.get_session_state())
        log.jump_to(1)
        assert encode(root.get_session_state()) == before
        assert log.cursor == 1


class TestPersistence:
    def test_export_import_byte_stable(self):
        root = make_counter_root()
        log = attach_fresh(root)
        log.set_next_label("first")
        edit_count(root, "a", 1)
        edit_count(root, "a", 2)
        log.undo()
        text = log.export_json()
        again = HistoryLog.import_json(text).export_json()
        assert text == again

    def test_import_preserves_cursor_and_steps(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        edit_count(root, "a", 2)
        log.undo()
        imported = HistoryLog.import_json(log.export_json())
        assert imported.cursor == 1
        assert len(imported.steps) == 2
        assert imported.verify() == []

    def test_imported_log_drives_a_twin_root(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        edit_count(root, "a", 2)
        imported = HistoryLog.import_json(log.export_json())

        twin = new_root()
        twin.set_session_state(imported.state_at(imported.cursor), remove_missing=True)
        twin.scheduler.flush_frame()
        imported.attach(twin)
        imported.undo()
        imported.undo()
        assert encode(twin.get_session_state()) == encode(log.state_at(0))
        imported.redo()
        assert encode(twin.get_session_state()) == encode(log.state_at(1))

    def test_attach_rejects_mismatched_root(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 1)
        imported = HistoryLog.import_json(log.export_json())
        stranger = new_root()
        stranger.request_object("zzz", "ex.Label")
        stranger.scheduler.flush_frame()
        with pytest.raises(ValueError):
            imported.attach(stranger)

    @pytest.mark.parametrize("baseline", ["null", "[]"])
    def test_an_imported_log_without_steps_refuses_a_root_that_does_not_hold_its_baseline(self, baseline):
        # A null baseline is a state like any other, not "no baseline yet".
        imported = HistoryLog.import_json(f'{{"version":1,"baseline":{baseline},"cursor":0,"steps":[]}}')
        with pytest.raises(ValueError, match="root state does not match"):
            imported.attach(make_counter_root())
        assert encode(imported.baseline) == baseline

    def test_a_log_that_never_attached_has_no_baseline_to_read_or_export(self):
        log = HistoryLog()
        for read in (lambda: log.baseline, lambda: log.state_at(0), log.export_json):
            with pytest.raises(ValueError, match="no baseline"):
                read()
        assert log.verify() == []

    def test_a_log_reattached_to_another_root_keeps_its_baseline(self):
        root = make_counter_root()
        log = attach_fresh(root)
        log.detach()
        with pytest.raises(ValueError, match="root state does not match"):
            log.attach(new_root())
        log.attach(root)
        assert encode(log.baseline) == encode(root.get_session_state())

    @pytest.mark.parametrize("steps", ["{}", '[1]', '[{"backward":{}}]'])
    def test_steps_that_are_no_list_of_diff_pairs_are_a_parse_error(self, steps):
        with pytest.raises(ParseError):
            HistoryLog.import_json(f'{{"version":1,"baseline":null,"cursor":0,"steps":{steps}}}')

    def test_version_and_shape_errors(self):
        with pytest.raises(ParseError):
            HistoryLog.import_json("{not json")
        with pytest.raises(ParseError):
            HistoryLog.import_json("[]")
        with pytest.raises(VersionMismatch):
            HistoryLog.import_json('{"version":2,"baseline":null,"cursor":0,"steps":[]}')
        with pytest.raises(ParseError):
            HistoryLog.import_json('{"version":1,"baseline":null,"cursor":5,"steps":[]}')
        with pytest.raises(ParseError):
            HistoryLog.import_json('{"version":1,"baseline":null,"cursor":0,"steps":[{"forward":{}}]}')

    @pytest.mark.parametrize("timestamp", ["null", "[1]", "{}", '"abc"', '"12"', "true"])
    def test_a_timestamp_that_is_no_number_is_a_parse_error(self, timestamp):
        text = f'{{"version":1,"baseline":null,"cursor":0,"steps":[{{"forward":{{}},"backward":{{}},"timestampMs":{timestamp}}}]}}'
        with pytest.raises(ParseError):
            HistoryLog.import_json(text)

    @pytest.mark.parametrize("label", ["null", "1", "true", "[1]", '{"a":[1]}'])
    def test_a_label_that_is_no_string_is_a_parse_error(self, label):
        # Read with str(), null would export as "None" and {"a":[1]} as "{'a': [1]}".
        text = f'{{"version":1,"baseline":null,"cursor":0,"steps":[{{"forward":{{}},"backward":{{}},"label":{label}}}]}}'
        with pytest.raises(ParseError):
            HistoryLog.import_json(text)

    def test_string_and_absent_labels_still_import(self):
        text = '{"version":1,"baseline":null,"cursor":0,"steps":[%s,%s]}' % (
            '{"forward":{},"backward":{},"label":"bump \\u00e9"}',
            '{"forward":{},"backward":{}}',
        )
        log = HistoryLog.import_json(text)
        assert [s.label for s in log.steps] == ["bump \u00e9", ""]
        assert HistoryLog.import_json(log.export_json()).export_json() == log.export_json()

    @pytest.mark.parametrize("cursor", ["true", "false", "1.0", '"0"', "null"])
    def test_a_cursor_that_is_no_integer_is_a_parse_error(self, cursor):
        text = f'{{"version":1,"baseline":null,"cursor":{cursor},"steps":[{{"forward":{{}},"backward":{{}}}}]}}'
        with pytest.raises(ParseError):
            HistoryLog.import_json(text)

    def test_numeric_timestamps_still_import(self):
        text = '{"version":1,"baseline":null,"cursor":2,"steps":[%s,%s]}' % (
            '{"forward":{},"backward":{},"timestampMs":1700000000000}',
            '{"forward":{},"backward":{},"timestampMs":12.0}',
        )
        assert [s.timestamp_ms for s in HistoryLog.import_json(text).steps] == [1700000000000, 12]

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("where", ["baseline", "forward"])
    def test_numbers_no_state_may_hold_are_a_parse_error(self, number, where):
        # Accepting one would give a log that export_json cannot write.
        baseline = f'{{"x":{number}}}' if where == "baseline" else "null"
        forward = f'{{"x":{number}}}' if where == "forward" else "{}"
        text = f'{{"version":1,"baseline":{baseline},"cursor":0,"steps":[{{"forward":{forward},"backward":{{}}}}]}}'
        with pytest.raises(ParseError):
            HistoryLog.import_json(text)


class TestInverseReplayOracle:
    def test_random_scripts_invert_and_replay(self):
        rng = random.Random(20260815)
        for case in range(40):
            root = build_random_session(rng, edits=4)
            log = HistoryLog(clock_ms=fixed_clock())
            log.attach(root)
            snapshots = [encode(root.get_session_state())]
            for _ in range(rng.randrange(3, 9)):
                random_edit(rng, root)
                root.scheduler.flush_frame()
                snapshots.append(encode(root.get_session_state()))
            # flushes with no net change record nothing: snapshot list may
            # have consecutive duplicates, steps only count real changes
            changed = [snapshots[0]]
            for s in snapshots[1:]:
                if s != changed[-1]:
                    changed.append(s)
            assert len(log.steps) == len(changed) - 1, f"case {case}"
            assert log.verify() == [], f"case {case}"
            # value replay agrees with the live snapshots
            for i in range(len(log.steps) + 1):
                assert encode(log.state_at(i)) == changed[i], f"case {case} step {i}"
            # walk all the way back and forward on the live root
            while log.can_undo:
                log.undo()
            assert encode(root.get_session_state()) == changed[0], f"case {case}"
            while log.can_redo:
                log.redo()
            assert encode(root.get_session_state()) == changed[-1], f"case {case}"

    def test_random_jumps_match_state_at(self):
        rng = random.Random(77)
        root = build_random_session(rng, edits=6)
        log = HistoryLog(clock_ms=fixed_clock())
        log.attach(root)
        for _ in range(10):
            random_edit(rng, root)
            root.scheduler.flush_frame()
        for _ in range(30):
            k = rng.randrange(len(log.steps) + 1)
            log.jump_to(k)
            assert log.cursor == k
            assert state_equivalent(root.get_session_state(), log.state_at(k))


class TestNavigationLandsOnTheLog:
    """After undo, redo and jump the live tree is the log's state at the
    cursor: it encodes the same bytes, mapping key order included."""

    def test_undo_past_a_removed_and_re_added_key_restores_its_place(self):
        root = LinkableObject()
        v = root.register_linkable_child("v", LinkableVariable({"a": 1, "b": 2}))
        root.scheduler.flush_frame()
        log = attach_fresh(root)
        v.set_state({"a": {"__removed__": True}})
        root.scheduler.flush_frame()
        v.set_state({"a": 1})
        root.scheduler.flush_frame()
        log.undo()
        log.undo()
        assert encode(root.get_session_state()) == encode(log.state_at(0)) == '{"v":{"a":1,"b":2}}'
        log.jump_to(2)
        assert encode(root.get_session_state()) == encode(log.state_at(2)) == '{"v":{"b":2,"a":1}}'

    def test_an_imported_log_lands_on_its_baseline_and_keeps_recording_states(self):
        root = new_root()
        root.request_object("p", "ex.Plot").source.request_local_object("ex.Counter")
        root.scheduler.flush_frame()
        log = attach_fresh(root)
        root.get_object("p").title.set_state("x")
        root.scheduler.flush_frame()
        imported = HistoryLog.import_json(log.export_json())
        twin = new_root()
        twin.set_session_state(imported.state_at(imported.cursor))
        twin.scheduler.flush_frame()
        imported.attach(twin)
        imported.undo()
        assert twin._snapshot() is imported._states[0]
        twin.get_object("p").title.set_state("y")
        twin.scheduler.flush_frame()
        assert twin._snapshot() is imported._states[1]  # on the log, so the new step keeps its state

    def test_attach_lands_an_equivalent_root_on_the_imported_logs_state(self):
        # The twin holds the state at the cursor with its keys in another
        # order; attach makes the kept state the twin's snapshot.
        root = LinkableObject()
        v = root.register_linkable_child("v", LinkableVariable({"a": 1, "b": 2}))
        root.scheduler.flush_frame()
        log = attach_fresh(root)
        v.set_state({"c": 3})
        root.scheduler.flush_frame()
        imported = HistoryLog.import_json(log.export_json())
        twin = LinkableObject()
        w = twin.register_linkable_child("v", LinkableVariable({"c": 3, "b": 2, "a": 1}))
        twin.scheduler.flush_frame()
        imported.attach(twin)
        assert encode(twin.get_session_state()) == encode(imported.state_at(1)) == '{"v":{"a":1,"b":2,"c":3}}'
        assert twin._snapshot() is imported._states[imported.cursor]
        w.set_state({"d": 4})
        twin.scheduler.flush_frame()
        assert twin._snapshot() is imported._states[2]  # on the log, so the new step keeps its state

    def test_an_entry_an_undo_creates_again_takes_its_state_whole(self):
        # The entry class's default is a mapping; the re-created entry must
        # not keep a default key its kept state lacks.
        registry = build_demo_registry()
        registry.register("t.Doc", lambda: LinkableVariable({"a": 1, "b": 2}))
        root = LinkableHashMap(registry, FrameScheduler())
        root.request_object("doc", "t.Doc")
        root.scheduler.flush_frame()
        log = attach_fresh(root)
        root.get_object("doc").set_state({"b": {"__removed__": True}})
        root.scheduler.flush_frame()
        root.remove_object("doc")
        root.scheduler.flush_frame()
        log.undo()
        root.scheduler.flush_frame()
        assert encode(root.get_session_state()) == encode(log.state_at(log.cursor))
        assert root.get_object("doc").get_state() == {"a": 1}
        assert root._snapshot() is log._states[log.cursor]

    def test_an_edit_then_an_undo_in_one_frame_keeps_the_edit(self):
        # The edit is not recorded yet, so the root is not at the kept state
        # it last landed on: the undo merges the step's diff over it.
        root = new_root()
        for name in ("p", "q"):
            root.request_object(name, "ex.Plot")
        root.scheduler.flush_frame()
        log = attach_fresh(root)
        root.get_object("p").title.set_state("recorded")
        root.scheduler.flush_frame()
        root.get_object("q").title.set_state("kept")
        log.undo()
        root.scheduler.flush_frame()
        assert root.get_object("p").title.get_state() == ""
        assert root.get_object("q").title.get_state() == "kept"
        assert log.cursor == 0 and len(log.steps) == 1

    def test_a_float_leaf_an_imported_step_reaches_is_stored_canonical(self):
        root = make_counter_root()
        log = attach_fresh(root)
        edit_count(root, "a", 5)
        text = log.export_json().replace('"count":5', '"count":5.0').replace('"cursor":1', '"cursor":0')
        imported = HistoryLog.import_json(text)
        twin = make_counter_root()
        imported.attach(twin)
        for step in (imported.redo, lambda: imported.jump_to(0), lambda: imported.jump_to(1)):
            step()
            value = twin.get_object("a").count._snapshot()
            assert value == imported.cursor * 5 and type(value) is int
        assert encode(twin.get_session_state()) == encode(imported.state_at(1))

    @staticmethod
    def _doc_root():
        # graphops sessions plus one entry whose variable holds a mapping.
        registry = build_demo_registry()
        registry.register("t.Doc", lambda: LinkableVariable({}))
        return LinkableHashMap(registry, FrameScheduler())

    @staticmethod
    def _edit(rng, root):
        if rng.random() < 0.5:
            random_edit(rng, root)
        elif "doc" not in root.get_names():
            root.request_object("doc", "t.Doc")
        else:
            doc = root.get_object("doc")
            value = doc.get_state()
            key = rng.choice("abcd")
            if isinstance(value, dict) and key in value and rng.random() < 0.5:
                doc.set_state({key: {"__removed__": True}})
            else:
                doc.set_state({key: rng.randrange(10)})
        root.scheduler.flush_frame()

    @pytest.mark.parametrize("seed", range(12))
    def test_every_navigation_encodes_as_the_state_at_the_cursor(self, seed):
        rng = random.Random(f"navigation/{seed}")
        root = self._doc_root()
        log = attach_fresh(root)
        for n in range(60):
            self._edit(rng, root)
            if rng.random() < 0.3:
                for _ in range(rng.randint(1, 4)):
                    r = rng.random()
                    if r < 0.4 and log.can_undo:
                        log.undo()
                    elif r < 0.7 and log.can_redo:
                        log.redo()
                    else:
                        log.jump_to(rng.randrange(len(log.steps) + 1))
                    root.scheduler.flush_frame()
                    where = f"seed {seed} op {n} cursor {log.cursor}"
                    assert encode(root.get_session_state()) == encode(log.state_at(log.cursor)), where
                    assert root._snapshot() is log._states[log.cursor], where
        assert log.verify() == []


class TestUnreadableLogs:
    def test_a_baseline_that_repeats_an_entry_name_is_a_parse_error(self):
        entry = '{"objectName":"x","className":"ex.Counter","sessionState":null}'
        text = f'{{"version":1,"baseline":[{entry},{entry}],"cursor":0,"steps":[]}}'
        with pytest.raises(ParseError):
            HistoryLog.import_json(text)

    def test_a_step_that_cannot_be_applied_fails_with_every_later_step(self):
        log = HistoryLog.import_json(unappliable_log())
        assert log.verify() == [1, 2]
        assert encode(log.state_at(1)) == '[{"objectName":"x","className":"ex.Counter","sessionState":{"count":1}}]'
        with pytest.raises(ParseError):
            log.state_at(2)


    def test_a_step_whose_backward_diff_cannot_be_applied_fails_alone(self):
        x = '{"objectName":"x","className":"ex.Counter","sessionState":{"count":1}}'
        y = '{"objectName":"y","className":"ex.Counter","sessionState":{"count":2}}'
        steps = [
            f'{{"forward":[{x}],"backward":[{{"objectName":"x"}},{y},{y}]}}',  # creates y twice
            '{"forward":{},"backward":{}}',
        ]
        log = HistoryLog.import_json(f'{{"version":1,"baseline":[],"cursor":0,"steps":[{",".join(steps)}]}}')
        assert log.verify() == [0]


def unappliable_log() -> str:
    """A three-step log whose step 1 creates the entry y twice."""
    x = '{"objectName":"x","className":"ex.Counter","sessionState":{"count":1}}'
    y = '{"objectName":"y","className":"ex.Counter","sessionState":{"count":2}}'
    steps = [
        f'{{"forward":[{x}],"backward":[]}}',
        f'{{"forward":[{{"objectName":"x"}},{y},{y}],"backward":[{{"objectName":"x"}}]}}',
        '{"forward":{},"backward":{}}',
    ]
    return f'{{"version":1,"baseline":[],"cursor":0,"steps":[{",".join(steps)}]}}'
