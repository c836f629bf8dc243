"""Path-copying apply: no aliasing, replay cost, same reports.

History replay, the client's published shadow and the relay's session state
apply diffs with ``_apply``, which never mutates its base and shares every
subtree the diff leaves alone. These tests pin the contract that makes that
safe: stored diffs, handed-out payloads and public results are never
changed by a later apply, and public results share nothing with their inputs.
"""

import hashlib
import importlib.resources
import json
import random

import pytest

import treegen
from linkstate import history, statetree
from linkstate.demo import build_demo_registry
from linkstate.statetree import (
    _apply,
    _apply_entry_diff,
    apply_diff,
    diff,
    encode,
    encode_diff,
    to_plain,
)
from linkstate.sync import (
    ClientEngine,
    Message,
    Relay,
    relay as relay_module,
    run_simulation,
    sim,
    wire,
)

from graphops import build_random_session, random_edit


def _container_ids(node, out=None):
    """ids of every dict and list in a tree."""
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


def _log_bytes(log):
    return [encode(log.baseline)] + [encode_diff(s.forward) + encode_diff(s.backward) for s in log.steps]


def _recorded_log(seed, steps=25):
    rng = random.Random(seed)
    root = build_random_session(rng, edits=6)
    root.scheduler.flush_frame()
    ticks = iter(range(1000, 1 << 30))
    log = history.HistoryLog(clock_ms=lambda: next(ticks))
    log.attach(root)
    while len(log.steps) < steps:
        random_edit(rng, root)
        root.scheduler.flush_frame()
    return root, log


# --- (a) aliasing ----------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_and_navigation_leave_the_stored_log_unchanged(seed):
    root, log = _recorded_log(seed)
    before = _log_bytes(log)
    n = len(log.steps)
    for target in (0, n // 3, n, 1, n - 1, n // 2):
        log.jump_to(target)
        root.scheduler.flush_frame()
        assert encode(root.get_session_state()) == encode(log.state_at(target))
    log.undo()
    root.scheduler.flush_frame()
    log.redo()
    root.scheduler.flush_frame()
    assert log.verify() == []
    assert _log_bytes(log) == before
    assert len(log.steps) == n


def test_state_at_returns_fresh_values():
    _, log = _recorded_log(4)
    first = log.state_at(len(log.steps))
    second = log.state_at(len(log.steps))
    assert encode(first) == encode(second)
    assert not _container_ids(first) & _container_ids(second)
    assert not _container_ids(log.state_at(0)) & _container_ids(log.baseline)


def test_public_apply_and_diff_share_nothing_with_their_inputs():
    rng = random.Random(20261018)
    for i in range(300):
        a = treegen.random_tree(rng)
        b = treegen.mutate(rng, a)
        for base in (a, to_plain(a)):
            d = diff(base, b)
            assert not _container_ids(d) & _container_ids(b), f"case {i}"
            out = apply_diff(base, d, remove_missing=bool(i % 2))
            assert not _container_ids(out) & (_container_ids(base) | _container_ids(d)), f"case {i}"


def test_owned_apply_matches_public_apply_and_never_aliases_the_diff():
    rng = random.Random(99)
    for i in range(300):
        a = treegen.random_tree(rng)
        b = treegen.mutate(rng, a) if i % 3 else treegen.random_tree(rng)
        d = diff(a, b)
        d_text = encode_diff(d)
        for remove_missing in (False, True):
            expected = encode(apply_diff(a, d, remove_missing))
            out = _apply(to_plain(a), d, remove_missing)
            assert encode(out) == expected, f"case {i}"
            assert not _container_ids(out) & _container_ids(d), f"case {i}"
            # the same stored diff applies again to a second copy unchanged
            again = _apply(to_plain(a), d, remove_missing)
            assert encode(again) == expected, f"case {i}"
        assert encode_diff(d) == d_text, f"case {i}"


def test_apply_never_changes_its_base_or_its_diff():
    rng = random.Random(4711)
    for i in range(300):
        a = to_plain(treegen.random_tree(rng))
        b = to_plain(treegen.mutate(rng, a) if i % 3 else treegen.random_tree(rng))
        d = diff(a, b)
        a_text, d_text = json.dumps(a), json.dumps(d)
        for remove_missing in (False, True):
            out = _apply(a, d, remove_missing)
            assert json.dumps(a) == a_text and json.dumps(d) == d_text, f"case {i}"
            assert not _container_ids(out) & _container_ids(d), f"case {i}"
        assert _apply(a, {}, True) is a


def _counters(n, count=0):
    return [{"objectName": f"c{i:04d}", "className": "ex.Counter", "sessionState": {"count": count}} for i in range(n)]


def test_relay_diff_shares_every_entry_it_leaves_alone():
    relay = Relay()
    relay.handle(Message("Hello", "s", "a"))
    relay.handle(Message("Diff", "s", "a", 0, _counters(5000)))
    welcome = relay.handle(Message("Hello", "s", "b"))[0][1].payload
    welcome_text = encode(welcome)
    before = relay.session_state("s")
    one = [{"objectName": "c2500", "className": "ex.Counter", "sessionState": {"count": 1}}]
    assert len(relay.handle(Message("Diff", "s", "a", 0, one))) == 2
    after = relay.session_state("s")
    assert len({id(e) for e in before} & {id(e) for e in after}) == 4999
    by_name = {e["objectName"]: e for e in after}  # a mentioned entry moves first
    assert by_name["c2500"]["sessionState"] == {"count": 1} and before[2500]["sessionState"] == {"count": 0}
    assert encode(welcome) == welcome_text


def test_client_shadow_is_the_flushed_snapshot_and_a_flush_walks_only_the_edit(monkeypatch):
    sent = []
    engine = ClientEngine("a", "s", build_demo_registry(), sent.append)
    engine.on_message(Message("Welcome", "s", "server", 0, _counters(1000)), 0)
    engine.flush(0)
    assert engine._published is engine.root._snapshot()
    calls = []
    real = statetree._diff_plain

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(statetree, "_diff_plain", counted)
    engine.root.get_object("c0500").count.set_state(7)
    engine.flush(1)
    assert engine._published is engine.root._snapshot()
    assert sent[-1].kind == "Diff" and sent[-1].payload[500]["sessionState"] == {"count": 7}
    assert len(calls) <= 10


def test_relay_never_mutates_a_state_it_handed_out():
    relay = Relay()
    welcome = relay.handle(Message("Hello", "s", "a"))[0][1].payload
    d = [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}]
    relay.handle(Message("Diff", "s", "a", 0, d))
    full = relay.handle(Message("Hello", "s", "a"))[0][1].payload
    full_text = encode(full)
    relay.handle(Message("Diff", "s", "a", 0, [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 2}}]))
    relay.handle(Message("Diff", "s", "a", 0, [{"objectName": "x", "__removed__": True}]))
    assert welcome == []
    assert encode(full) == full_text
    assert d == [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}]
    assert relay.session_state("s") == []


def test_relay_failed_apply_leaves_the_state_untouched(monkeypatch):
    relay = Relay()
    relay.handle(Message("Hello", "s", "a"))
    relay.handle(Message("Diff", "s", "a", 0, [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}]))
    state = relay.session_state("s")
    text = encode(state)

    def apply_then_fail(base, items, order, remove_missing):
        _apply_entry_diff(base, items, order, remove_missing)  # the whole apply runs, then fails
        raise ValueError("late failure")

    monkeypatch.setattr(relay_module, "_apply_entry_diff", apply_then_fail)
    bad = [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 7}}]
    assert relay.handle(Message("Diff", "s", "a", 0, bad)) == []
    assert relay.session_state("s") is state
    assert encode(state) == text
    assert relay.session_seq("s") == 1


def test_relay_still_drops_a_diff_that_would_duplicate_an_entry_name():
    relay = Relay()
    relay.handle(Message("Hello", "s", "a"))
    twice = [{"objectName": "x", "className": "ex.Counter"}, {"objectName": "x", "className": "ex.Counter"}]
    assert relay.handle(Message("Diff", "s", "a", 0, twice)) == []
    assert relay.handle(Message("Diff", "s", "a", 0, {"__value__": {"k": twice}})) == []
    assert relay.session_state("s") == []
    assert relay.session_seq("s") == 0
    # the same over a state the relay built, whose own names need no check
    one = [{"objectName": "w", "className": "ex.Counter"}]
    assert len(relay.handle(Message("Diff", "s", "a", 0, one))) == 1
    built = relay.session_state("s")
    assert relay.handle(Message("Diff", "s", "a", 0, [{"objectName": "w"}] + twice)) == []
    assert relay.session_state("s") is built
    assert relay.session_seq("s") == 1


def test_client_shadow_update_leaves_pending_diffs_intact():
    sent = []
    engine = ClientEngine("a", "s", build_demo_registry(), sent.append)
    engine.on_message(Message("Welcome", "s", "server", 0, []), 0)
    engine.root.request_object("x", "ex.Plot")
    engine.flush(0)
    pending = sent[-1].payload
    pending_text = encode_diff(pending)
    # another writer's edit lands inside the subtree our unacked diff created
    remote = [{"objectName": "x", "className": "ex.Plot", "sessionState": {"title": "theirs"}}]
    engine.on_message(Message("Diff", "s", "b", 1, remote), 1)
    assert encode_diff(pending) == pending_text
    assert engine.pending_count == 1
    engine.on_message(Message("Ack", "s", "a", 2, json.loads(pending_text)), 2)
    assert engine.pending_count == 0
    engine.flush(3)
    assert sent[-1].kind == "Diff" and encode_diff(sent[-1].payload) == pending_text  # nothing new sent


# --- (b) replay cost follows the steps, not tree copies ---------------------------------


def _count_outermost(monkeypatch, names):
    """Calls of the named statetree functions made while none of them runs,
    so the copies an apply makes of its diff's payloads are not counted."""
    calls = {name: 0 for name in names}
    depth = [0]
    for name in names:
        real = getattr(statetree, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            depth[0] += 1
            if depth[0] == 1:
                calls[_name] += 1
            try:
                return _real(*args, **kwargs)
            finally:
                depth[0] -= 1

        for module in (statetree, history):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("which", ["first", "last"])
def test_state_at_converts_once_whatever_the_step(monkeypatch, which):
    # A recorded log keeps the state after each step: reading one is a
    # single copy, with no replay.
    _, log = _recorded_log(5, steps=30)
    k = 1 if which == "first" else len(log.steps)
    calls = _count_outermost(monkeypatch, ["to_plain", "_apply"])
    log.state_at(k)
    assert calls == {"to_plain": 1, "_apply": 0}


@pytest.mark.parametrize("which", ["first", "last"])
def test_state_at_on_an_imported_log_copies_the_baseline_once(monkeypatch, which):
    # A log read from JSON keeps only its baseline, so it replays: k applies
    # onto the baseline itself, which they leave as it was, and one copy of
    # the result; the baseline is not copied first.
    _, recorded = _recorded_log(5, steps=30)
    log = history.HistoryLog.import_json(recorded.export_json())
    baseline_text = json.dumps(log._states[0])
    k = 1 if which == "first" else len(log.steps)
    calls = _count_outermost(monkeypatch, ["to_plain", "_apply"])
    out = log.state_at(k)
    assert calls == {"to_plain": 1, "_apply": k}
    assert json.dumps(log._states[0]) == baseline_text
    assert encode(out) == encode(recorded.state_at(k))


# --- (c) simulator reports stay byte-identical ------------------------------------------

# sha256 over report_json() + "\n" and json.dumps(trace) + "\n" of the bundled
# scenarios in this order, seeds 0-19, recorded before the in-place apply.
SCENARIOS = ("two-client-disjoint", "three-client-conflict", "drop-and-resync")
REPORTS_SHA256 = "45f75f27168968ae2a2bafc091bfa7da2dca3b8c394f82b792de9da8c22eee24"
TRACES_SHA256 = "20b73ce26c0f01800b0aa5c2e0fe678cff7a2945437ec03afc5968e905d36156"


def test_bundled_simulation_reports_match_the_recorded_digest():
    reports = hashlib.sha256()
    traces = hashlib.sha256()
    for name in SCENARIOS:
        script = (importlib.resources.files("linkstate") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")
        for seed in range(20):
            result = run_simulation(script, seed=seed)
            reports.update(result.report_json().encode("utf-8") + b"\n")
            traces.update(json.dumps(result.trace).encode("utf-8") + b"\n")
    assert reports.hexdigest() == REPORTS_SHA256
    assert traces.hexdigest() == TRACES_SHA256


# Small generated scripts on a lossy network: two to four clients, 15%
# client->relay loss and one 120 ms relay->client blackout, with removals,
# reorders and class changes among the sets. They reach the retransmit and
# resync applies that the bundled scenarios barely touch. sha256 over
# report_json() + "\n" and json.dumps(trace) + "\n" of seeds 0-11, recorded
# before the positional apply.
LOSSY_REPORTS_SHA256 = "6431558c8fe8cfe2266dcee6b405fac0376e08cc4aa7c063aa1321e9f13db3f9"
LOSSY_TRACES_SHA256 = "357fa63d1cd69adc7878ad191c3be82dd1e7f2fda0cc1d736760a918348db11b"
_LEAVES = {
    "ex.Counter": (["count"],),
    "ex.Label": (["text"], ["size"]),
    "ex.Plot": (["title"], ["label", "text"], ["label", "size"]),
}


def _lossy_script(seed):
    rng = random.Random(f"lossy/{seed}")
    ids = [f"c{i}" for i in range(rng.randint(2, 4))]
    edits = {cid: [] for cid in ids}
    objects = []
    for j in range(8):
        name, cls = f"o{j}", rng.choice(sorted(_LEAVES))
        objects.append((name, cls))
        edits[rng.choice(ids)].append({"atMs": 300 + 5 * j, "op": "request", "name": name, "class": cls})
    for k in range(40):
        at = 600 + 20 * k + rng.randrange(10)
        cid = rng.choice(ids)
        r = rng.random()
        if r < 0.06:
            edits[cid].append({"atMs": at, "op": "remove", "name": rng.choice(objects)[0]})
        elif r < 0.12:
            names = [n for n, _ in objects]
            rng.shuffle(names)
            edits[cid].append({"atMs": at, "op": "reorder", "names": names[:3]})
        elif r < 0.16:
            name, cls = rng.choice(objects)
            edits[cid].append({"atMs": at, "op": "request", "name": name, "class": rng.choice(sorted(_LEAVES))})
        else:
            name, cls = rng.choice(objects)
            leaf = rng.choice(_LEAVES[cls])
            value = k if leaf[-1] in ("count", "size") else f"v{k}"
            edits[cid].append({"atMs": at, "op": "set", "path": [name] + leaf, "value": value})
    blackout = rng.randrange(700, 1200)
    return {
        "session": "lossy",
        "durationMs": 1500,
        "flushIntervalMs": 10,
        "net": {
            "latencyMs": [1, 12],
            "dropClientToRelay": 0.15,
            "dropRelayToClientWindows": [[blackout, blackout + 120]],
        },
        "clients": [{"id": cid, "edits": sorted(edits[cid], key=lambda e: e["atMs"])} for cid in ids],
    }


def test_generated_lossy_simulation_reports_match_the_recorded_digest():
    reports = hashlib.sha256()
    traces = hashlib.sha256()
    resyncs = retransmits = 0
    for seed in range(12):
        result = run_simulation(_lossy_script(seed), seed=seed)
        reports.update(result.report_json().encode("utf-8") + b"\n")
        traces.update(json.dumps(result.trace).encode("utf-8") + b"\n")
        assert result.report["converged"], f"seed {seed}"
        for c in result.report["clients"].values():
            resyncs += c["resyncs"]
            retransmits += c["retransmits"]
    assert resyncs > 0 and retransmits > 0
    assert reports.hexdigest() == LOSSY_REPORTS_SHA256
    assert traces.hexdigest() == LOSSY_TRACES_SHA256


# Every frame the simulator sends, in send order: the bundled scenarios at
# seeds 1-3, then one generated lossy script. The reports and traces above
# carry frame sizes only; this pins the bytes. sha256 over the frames
# (each carries its own length prefix), recorded before payloads were read
# and written against their mention lists' text.
FRAMES_SHA256 = "898cf17001bd9e4c3b692573e1932fdb68298606bd49827a909e13ad9c7a2238"


def test_simulated_frames_match_the_recorded_digest(monkeypatch):
    # A pipe sends each frame as it is encoded: a client's by encode_frame,
    # the relay's as encode_fanout yields it.
    frames = hashlib.sha256()

    def encode_frame(msg):
        frame = wire.encode_frame(msg)
        frames.update(frame)
        return frame

    def encode_fanout(outbound):
        for target, msg, frame in wire.encode_fanout(outbound):
            frames.update(frame)
            yield target, msg, frame

    monkeypatch.setattr(sim, "encode_frame", encode_frame)
    monkeypatch.setattr(sim, "encode_fanout", encode_fanout)
    for name in SCENARIOS:
        script = (importlib.resources.files("linkstate") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")
        for seed in (1, 2, 3):
            run_simulation(script, seed=seed)
    result = run_simulation(_lossy_script(3), seed=3)
    assert all(c["retransmits"] and c["resyncs"] for c in result.report["clients"].values())
    assert frames.hexdigest() == FRAMES_SHA256
