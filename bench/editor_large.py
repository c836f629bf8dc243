"""editor-large: one process, no sync; a large tree under a long undo log.

The set-up builds a root LinkableHashMap of PLOTS plain ex.Plot entries and
attaches a HistoryLog. Before the timed rounds, HISTORY seeded one-field
edits fill the log, so the log is long, as after some minutes of editing.

A round then runs 100 operations in a closed loop with one caller: 88
one-field edits, 8 undo+redo pairs, 2 saves and, last, 2 jumps to a random
step and back to the end, each followed by a frame flush. An undo, a redo,
a jump and a jump back are each timed as a user operation of their own,
so a round times 110 operations and its p90 falls among the one-flush
operations, not on the edge between them and the two-flush pairs. Edits are tiny
next to the tree, so the O(tree) snapshot, diff and history record dominate;
the jump is the history read path (state_at replays from the baseline, so it
costs O(steps x tree)). After a round, untimed, the round's 88 steps are
undone; the next round's first edit drops them from the log. Every round
therefore starts from the same tree and a log of HISTORY steps, and its
jumps replay from a log of HISTORY + 88 steps.

The two jump targets of a round are t and steps - t for a random t, so
every round replays the same number of steps and only where it stops
varies: one costly target cannot make a round slow. Rounds are drawn from
the seed one after another, and a run reports the median round.
"""

from __future__ import annotations

import random

from common import PlainClock, Result, Round, run_rounds, self_peak_rss_mb, time_setups

PLOTS = 500
HISTORY = 100  # steps in the log before the timed rounds
ROUND_OPS = 100  # 88 edits, 8 undo+redo, 2 saves, 2 jumps: 110 timed user steps
ROUND_EDITS = 88
SETUP_SAMPLES = 9
SETUP_BATCH = 4  # set-ups per sample, so a sample spans many phases of the machine
SETUPS_PER_ROUND = 3  # samples taken after each round, so set-up is sampled over the run

FIELDS = (("title",), ("label", "text"), ("label", "size"))


def tree_spec(seed: int) -> list[dict]:
    """The initial tree: per plot its field values."""
    rng = random.Random(f"editor-large/tree/{seed}")
    return [
        {
            "name": f"plot{i:03d}",
            "title": f"title {rng.randrange(10**6)}",
            "text": f"label {rng.randrange(10**6)}",
            "size": rng.randrange(8, 40),
        }
        for i in range(PLOTS)
    ]


def history_edits(seed: int) -> list[tuple]:
    """The edits that fill the log before the rounds, as ("edit", plot, path, value)."""
    rng = random.Random(f"editor-large/history/{seed}")
    edits = []
    for i in range(HISTORY):
        path = rng.choice(FIELDS)
        value = 10**5 + i if path[-1] == "size" else f"history {i}"
        edits.append(("edit", f"plot{rng.randrange(PLOTS):03d}", path, value))
    return edits


def round_ops(seed: int, index: int) -> list[tuple]:
    """Ops of one round: ("edit", plot, path, value), ("undo_redo",),
    ("save",) or ("jump", step)."""
    rng = random.Random(f"editor-large/ops/{seed}/{index}")
    kinds = ["edit"] * ROUND_EDITS + ["undo_redo"] * 8 + ["save"] * 2
    rng.shuffle(kinds)
    first_edit = kinds.index("edit")
    kinds[0], kinds[first_edit] = kinds[first_edit], kinds[0]  # drops the previous round's undone steps

    ops = []
    for n, kind in enumerate(kinds):
        if kind == "edit":
            path = rng.choice(FIELDS)
            value = 1000 + n if path[-1] == "size" else f"edit {index}.{n}"
            ops.append(("edit", f"plot{rng.randrange(PLOTS):03d}", path, value))
        else:
            ops.append((kind,))
    steps = HISTORY + ROUND_EDITS
    target = rng.randrange(steps + 1)
    ops += [("jump", target), ("jump", steps - target)]
    return ops


def build(spec: list[dict]):
    """The timed set-up: tree, first flush, attached log."""
    from linkstate import FrameScheduler, HistoryLog, LinkableHashMap, build_demo_registry

    scheduler = FrameScheduler()
    root = LinkableHashMap(build_demo_registry(), scheduler)
    for p in spec:
        plot = root.request_object(p["name"], "ex.Plot")
        plot.title.set_state(p["title"])
        plot.label.text.set_state(p["text"])
        plot.label.size.set_state(p["size"])
    scheduler.flush_frame()
    ticks = iter(range(1 << 62))
    log = HistoryLog(clock_ms=lambda: next(ticks))
    log.attach(root)
    return root, scheduler, log


def user_steps(op) -> list[tuple]:
    """The user operations an op is made of, each timed on its own: an undo
    and its redo are two, a jump and the jump back to the end are two."""
    if op[0] == "undo_redo":
        return [("undo",), ("redo",)]
    if op[0] == "jump":
        return [("jump_to", op[1]), ("jump_to", None)]  # None: the end of the log
    return [op]


def apply_op(op, root, scheduler, log) -> None:
    """Run an op or one user step of it, with its frame flush."""
    from linkstate import statetree

    kind = op[0]
    if kind in ("undo_redo", "jump"):
        for step in user_steps(op):
            apply_op(step, root, scheduler, log)
    elif kind == "edit":
        obj = root.get_object(op[1])
        for part in op[2]:
            obj = obj.get_linkable_child(part)
        obj.set_state(op[3])
        scheduler.flush_frame()
    elif kind == "undo":
        log.undo()
        scheduler.flush_frame()
    elif kind == "redo":
        log.redo()
        scheduler.flush_frame()
    elif kind == "jump_to":
        log.jump_to(len(log.steps) if op[1] is None else op[1])
        scheduler.flush_frame()
    else:
        statetree.encode(root.get_session_state())


def rewind(scheduler, log) -> None:
    """Undo back to the end of the filled history."""
    while log.cursor > HISTORY:
        log.undo()
        scheduler.flush_frame()


def check(root, log) -> list[str]:
    """The history replays to the live tree and every step inverts."""
    from linkstate import statetree

    problems = []
    if len(log.steps) != HISTORY + ROUND_EDITS or log.cursor != HISTORY:
        problems.append(
            f"log has {len(log.steps)} steps at cursor {log.cursor}, expected {HISTORY + ROUND_EDITS} at {HISTORY}"
        )
    bad = log.verify()
    if bad:
        problems.append(f"history steps {bad[:5]} do not invert")
    if not statetree.state_equivalent(log.state_at(log.cursor), root.get_session_state()):
        problems.append("state_at(cursor) differs from the live root")
    return problems


def run(seed: int, seconds: float, tracer, clock=PlainClock()) -> Result:
    spec = tree_spec(seed)
    root, scheduler, log = build(spec)
    setups: list[float] = []
    for op in history_edits(seed):
        apply_op(op, root, scheduler, log)

    def one_round(index: int) -> Round:
        latencies = []
        failed = 0
        problems = []
        timed = 0.0
        for step in (step for op in round_ops(seed, index) for step in user_steps(op)):
            t0 = clock.mark()
            try:
                tracer.call("bench.op", apply_op, step, root, scheduler, log)
            except Exception as e:  # a step that raises is a failed op, not a crash
                failed += 1
                problems.append(f"round {index} op {step[0]} raised {type(e).__name__}: {e}")
            dt = clock.seconds(t0, clock.mark())
            timed += dt
            latencies.append(dt * 1000)
        steps = len(log.steps)
        rewind(scheduler, log)
        time_setups(setups, len(setups) + SETUPS_PER_ROUND, SETUP_BATCH, lambda: build(spec), dispose, clock)
        return Round(
            ops=len(latencies),
            timed_s=timed,
            failed=failed,
            latencies_ms=latencies,
            counters={"history.steps": steps},
            problems=problems,
        )

    def dispose(made) -> None:
        made[0].dispose()

    rounds = run_rounds(one_round, seconds)
    problems = [p for r in rounds for p in r.problems] + check(root, log)
    root.dispose()
    time_setups(setups, SETUP_SAMPLES, SETUP_BATCH, lambda: build(spec), dispose, clock)
    return Result(rounds, setups, self_peak_rss_mb(), problems)
