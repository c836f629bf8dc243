"""Self-test of the benchmark: seeded generation and the tracer.

    python3 -m pytest bench -q

About a minute: the sim-lossy test runs the generated script twice and an
editor-large test runs two full rounds.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import editor_large  # noqa: E402
import relay_loopback  # noqa: E402
import sim_lossy  # noqa: E402
from common import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402

DETERMINISTIC = [
    "sim.wire_bytes_per_op",
    "sim.settle_virtual_ms",
    "sim.frames_sent",
    "sim.frames_dropped",
    "sim.frames_delivered",
    "relay.applied",
]


def test_sim_lossy_counts_repeat_on_the_same_seed():
    from linkstate.sync import run_simulation

    counts = []
    reports = []
    for _ in range(2):
        script, sim_seed = sim_lossy.make_script(7)
        result = run_simulation(script, seed=sim_seed)
        counts.append(sim_lossy.deterministic_counts(result, sim_lossy.edit_count(script)))
        reports.append(result.report_json())
        assert result.report["converged"]
    assert all(key in counts[0] for key in DETERMINISTIC)
    assert counts[0] == counts[1]
    assert reports[0] == reports[1]


def test_same_seed_same_inputs_and_another_seed_changes_them():
    assert editor_large.tree_spec(1) == editor_large.tree_spec(1) != editor_large.tree_spec(2)
    assert editor_large.history_edits(1) == editor_large.history_edits(1) != editor_large.history_edits(2)
    assert editor_large.round_ops(1, 0) == editor_large.round_ops(1, 0)
    assert editor_large.round_ops(1, 0) != editor_large.round_ops(2, 0)
    assert editor_large.round_ops(1, 0) != editor_large.round_ops(1, 1)
    assert sim_lossy.make_script(1) == sim_lossy.make_script(1) != sim_lossy.make_script(2)
    assert relay_loopback.edit_plan(1) == relay_loopback.edit_plan(1) != relay_loopback.edit_plan(2)


def test_editor_round_has_the_stated_mix():
    ops = editor_large.round_ops(3, 0)
    kinds = [op[0] for op in ops]
    assert len(ops) == editor_large.ROUND_OPS
    assert (kinds.count("edit"), kinds.count("undo_redo"), kinds.count("jump"), kinds.count("save")) == (88, 8, 2, 2)
    assert kinds[0] == "edit" and kinds[-2:] == ["jump", "jump"]


def test_editor_rounds_replay_the_same_number_of_steps():
    steps = editor_large.HISTORY + editor_large.ROUND_EDITS
    targets = [[op[1] for op in editor_large.round_ops(3, r)[-2:]] for r in range(5)]
    assert all(0 <= t <= steps and t + u == steps for t, u in targets)
    assert len({t for t, _ in targets}) > 1


def test_editor_rounds_leave_the_log_as_they_found_it():
    saved = editor_large.HISTORY
    editor_large.HISTORY = 3  # a short history keeps the test fast
    try:
        root, scheduler, log = editor_large.build(editor_large.tree_spec(2))
        for op in editor_large.history_edits(2):
            editor_large.apply_op(op, root, scheduler, log)
        for index in range(2):
            for op in editor_large.round_ops(2, index):
                editor_large.apply_op(op, root, scheduler, log)
            assert (len(log.steps), log.cursor) == (3 + editor_large.ROUND_EDITS,) * 2
            editor_large.rewind(scheduler, log)
        assert editor_large.check(root, log) == []
    finally:
        editor_large.HISTORY = saved


def test_sim_lossy_edits_start_after_every_join():
    script, sim_seed = sim_lossy.make_script(4)
    first_edit = min(e["atMs"] for c in script["clients"] for e in c["edits"])
    assert first_edit > max(sim_lossy.join_times(sim_seed).values())
    assert sim_lossy.edit_count(script) == sim_lossy.OBJECTS + sim_lossy.SETS


def test_loopback_plan_never_reuses_a_recent_counter():
    plan = relay_loopback.edit_plan(5)
    names = [name for name, _ in plan]
    for i in range(len(names)):
        assert names[i] not in names[max(0, i - relay_loopback.RECENT) : i]


def test_tracer_records_outermost_spans_and_uninstalls():
    import linkstate.history
    from linkstate import statetree

    original_diff = statetree.diff
    spec = editor_large.tree_spec(1)[:20]
    tracer = Tracer()
    tracer.install()
    try:
        root, scheduler, log = editor_large.build(spec)  # attach binds the wrapped _record
        assert linkstate.history.diff is not original_diff
        tracer.call("bench.op", editor_large.apply_op, ("edit", "plot000", ("title",), "x"), root, scheduler, log)
        root.get_session_state()  # outside recording: no span
    finally:
        tracer.uninstall()
    assert linkstate.history.diff is original_diff and statetree.diff is original_diff
    summary = tracer.summary()
    assert summary["bench.op"]["calls"] == 1
    assert summary["history.record"]["calls"] == 1
    # _record takes one snapshot; the walk over 20 plots is one span
    assert summary["dynamic.get_session_state"]["calls"] == 1
    assert summary["statetree.diff"]["calls"] == 2
    op = summary["bench.op"]
    assert 0 <= op["self_ms"] <= op["ms"]
    assert len(log.steps) == 1


def test_speed_clock_leaves_out_the_kernel_and_stop_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clock = SpeedClock()
    clock.start()
    try:
        w0, m0 = time.perf_counter(), clock.mark()
        end = w0 + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
        wall, m1 = time.perf_counter() - w0, clock.mark()
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(clock.samples_ms) >= 10
    net = (m1[0] - m1[1]) - (m0[0] - m0[1])
    assert 0 < clock.spent_s < wall / 2
    assert abs((wall - net) - clock.spent_s) < 0.005
    # seconds() is the net time scaled by nominal over the kernel's mean time
    assert abs(clock.seconds(m0, m1) * clock.factor() - net) < 0.01 * net
