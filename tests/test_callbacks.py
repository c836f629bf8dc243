"""Callback collections: ordering, delay/resume, grouping, bubbling, guards."""

import functools
import threading

import pytest

from linkstate.callbacks import CallbackCollection, FrameScheduler
from linkstate.errors import (
    Disposed,
    DuplicateCallback,
    ReentrantFlush,
    ResumeWithoutDelay,
    UnknownHandle,
)


def test_immediate_callbacks_run_in_registration_order():
    cc = CallbackCollection()
    order = []
    cc.add_immediate_callback(lambda: order.append("a"))
    cc.add_immediate_callback(lambda: order.append("b"))
    cc.add_immediate_callback(lambda: order.append("c"))
    cc.trigger()
    assert order == ["a", "b", "c"]


def test_run_now_invokes_once_at_registration():
    cc = CallbackCollection()
    runs = []
    cc.add_immediate_callback(lambda: runs.append(1), run_now=True)
    assert runs == [1]
    cc.trigger()
    assert runs == [1, 1]


def test_duplicate_immediate_callback_rejected():
    cc = CallbackCollection()

    def cb():
        pass

    cc.add_immediate_callback(cb)
    with pytest.raises(DuplicateCallback):
        cc.add_immediate_callback(cb)


def test_remove_callback_and_unknown_handle():
    cc = CallbackCollection()
    runs = []
    h = cc.add_immediate_callback(lambda: runs.append(1))
    cc.remove_callback(h)
    cc.trigger()
    assert runs == []
    with pytest.raises(UnknownHandle):
        cc.remove_callback(h)


def test_callback_removed_mid_trigger_does_not_run():
    cc = CallbackCollection()
    order = []
    handles = {}

    def first():
        order.append("first")
        cc.remove_callback(handles["second"])

    cc.add_immediate_callback(first)
    handles["second"] = cc.add_immediate_callback(lambda: order.append("second"))
    cc.trigger()
    assert order == ["first"]


def test_callback_added_mid_trigger_runs_from_next_trigger():
    cc = CallbackCollection()
    order = []

    def late():
        order.append("late")

    def first():
        order.append("first")
        if not any(e.fn is late for e in cc._immediate):
            cc.add_immediate_callback(late)

    cc.add_immediate_callback(first)
    cc.trigger()
    assert order == ["first"]
    cc.trigger()
    assert order == ["first", "first", "late"]


def test_delay_resume_collapses_triggers():
    cc = CallbackCollection()
    runs = []
    cc.add_immediate_callback(lambda: runs.append(1))
    before = cc.trigger_counter
    cc.delay()
    cc.trigger()
    cc.trigger()
    cc.trigger()
    assert runs == []
    cc.resume()
    assert runs == [1]
    assert cc.trigger_counter == before + 1


def test_nested_delay_runs_only_at_outermost_resume():
    cc = CallbackCollection()
    runs = []
    cc.add_immediate_callback(lambda: runs.append(1))
    cc.delay()
    cc.delay()
    cc.trigger()
    cc.resume()
    assert runs == []
    cc.resume()
    assert runs == [1]


def test_resume_without_delay_raises():
    cc = CallbackCollection()
    with pytest.raises(ResumeWithoutDelay):
        cc.resume()


def test_delay_without_trigger_runs_nothing_on_resume():
    cc = CallbackCollection()
    runs = []
    cc.add_immediate_callback(lambda: runs.append(1))
    cc.delay()
    cc.resume()
    assert runs == []


def test_recursive_trigger_skips_running_callback_only():
    cc = CallbackCollection()
    counts = {"a": 0, "b": 0}

    def a():
        counts["a"] += 1
        if counts["a"] == 1:
            cc.trigger()  # nested: a is skipped, b still runs

    def b():
        counts["b"] += 1

    cc.add_immediate_callback(a)
    cc.add_immediate_callback(b)
    cc.trigger()
    assert counts == {"a": 1, "b": 2}
    assert cc.trigger_counter == 2


def test_parent_bubbling_increments_each_level_once():
    sched = FrameScheduler()
    root = CallbackCollection(sched)
    mid = CallbackCollection(sched)
    leaf = CallbackCollection(sched)
    mid._add_parent(root)
    leaf._add_parent(mid)

    order = []
    root.add_immediate_callback(lambda: order.append("root"))
    mid.add_immediate_callback(lambda: order.append("mid"))
    leaf.add_immediate_callback(lambda: order.append("leaf"))

    c0 = (leaf.trigger_counter, mid.trigger_counter, root.trigger_counter)
    leaf.trigger()
    c1 = (leaf.trigger_counter, mid.trigger_counter, root.trigger_counter)
    assert order == ["leaf", "mid", "root"]
    assert tuple(b - a for a, b in zip(c0, c1)) == (1, 1, 1)


def test_grouped_callback_runs_once_per_frame():
    sched = FrameScheduler()
    cc = CallbackCollection(sched)
    runs = []
    cc.add_grouped_callback(lambda: runs.append(1))
    cc.trigger()
    cc.trigger()
    assert runs == []
    sched.flush_frame()
    assert runs == [1]
    sched.flush_frame()
    assert runs == [1]  # nothing pending


def test_grouped_callback_dedup_across_collections():
    sched = FrameScheduler()
    a = CallbackCollection(sched)
    b = CallbackCollection(sched)
    runs = []

    def shared():
        runs.append(1)

    a.add_grouped_callback(shared)
    b.add_grouped_callback(shared)
    a.trigger()
    b.trigger()
    sched.flush_frame()
    assert runs == [1]


def test_grouped_scheduled_during_flush_runs_next_frame():
    sched = FrameScheduler()
    cc = CallbackCollection(sched)
    runs = []

    def cb():
        runs.append(len(runs))
        if len(runs) == 1:
            cc.trigger()  # re-schedules for the following frame

    cc.add_grouped_callback(cb)
    cc.trigger()
    sched.flush_frame()
    assert runs == [0]
    sched.flush_frame()
    assert runs == [0, 1]
    sched.flush_frame()
    assert runs == [0, 1]


def test_removed_grouped_callback_does_not_run():
    sched = FrameScheduler()
    cc = CallbackCollection(sched)
    runs = []
    h = cc.add_grouped_callback(lambda: runs.append(1))
    cc.trigger()
    cc.remove_callback(h)
    sched.flush_frame()
    assert runs == []


def test_reentrant_flush_rejected():
    sched = FrameScheduler()
    cc = CallbackCollection(sched)
    errors = []

    def cb():
        try:
            sched.flush_frame()
        except ReentrantFlush as e:
            errors.append(e)

    cc.add_grouped_callback(cb)
    cc.trigger()
    sched.flush_frame()
    assert len(errors) == 1


def test_frame_count_advances_even_when_idle():
    sched = FrameScheduler()
    n = sched.frame_count
    sched.flush_frame()
    assert sched.frame_count == n + 1


def test_dispose_silences_and_guards():
    cc = CallbackCollection()
    runs = []
    cc.add_immediate_callback(lambda: runs.append(1))
    cc.dispose()
    assert cc.disposed
    with pytest.raises(Disposed):
        cc.trigger()
    with pytest.raises(Disposed):
        cc.add_immediate_callback(lambda: None)
    cc.dispose()  # second dispose is a no-op


def test_disposed_collection_grouped_entries_do_not_run():
    sched = FrameScheduler()
    cc = CallbackCollection(sched)
    runs = []
    cc.add_grouped_callback(lambda: runs.append(1))
    cc.trigger()
    cc.dispose()
    sched.flush_frame()
    assert runs == []


def test_trace_lines_on_stderr(monkeypatch, capsys):
    monkeypatch.setenv("LINKSTATE_TRACE", "1")
    cc = CallbackCollection()

    def traced():
        pass

    cc.add_immediate_callback(traced)
    cc.trigger()
    err = capsys.readouterr().err
    assert "linkstate-trace: immediate" in err and "traced" in err


def test_a_trace_line_names_a_callable_without_a_qualified_name_by_its_repr(monkeypatch, capsys):
    monkeypatch.setenv("LINKSTATE_TRACE", "1")
    cc = CallbackCollection()
    cc.add_immediate_callback(functools.partial(int, "7"))
    cc.trigger()
    assert "linkstate-trace: immediate functools.partial(<class 'int'>, '7')" in capsys.readouterr().err


def test_a_collection_used_from_another_thread_fails_its_assertion():
    cc = CallbackCollection()
    failures = []

    def use():
        for op in (lambda: cc.add_immediate_callback(lambda: None), cc.trigger):
            try:
                op()
            except AssertionError as e:
                failures.append(str(e))

    t = threading.Thread(target=use)
    t.start()
    t.join()
    assert failures == ["callback collection used across threads"] * 2


def test_invocation_order_is_deterministic_across_runs():
    def run_once():
        sched = FrameScheduler()
        parent = CallbackCollection(sched)
        child = CallbackCollection(sched)
        child._add_parent(parent)
        log = []
        parent.add_immediate_callback(lambda: log.append("p"))
        child.add_immediate_callback(lambda: log.append("c1"))
        child.add_immediate_callback(lambda: log.append("c2"))
        child.add_grouped_callback(lambda: log.append("g"))
        child.trigger()
        child.delay()
        child.trigger()
        child.trigger()
        child.resume()
        sched.flush_frame()
        return log

    assert run_once() == run_once()
