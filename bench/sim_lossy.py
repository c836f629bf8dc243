"""sim-lossy: run_simulation on a lossy six-client script generated from the seed.

Six clients share OBJECTS mixed ex.Counter / ex.Label / ex.Plot objects and
make SETS one-field sets over SET_WINDOW_MS of virtual time, on a network with
latency [1, 15] ms, 5% client->relay loss and one 100 ms relay->client
blackout. This is the sync stack's CPU cost per edit: relay apply, the
client's published-shadow apply, the wire codec and the retransmit and
resync paths. History is bypassed.

Timing rule: docs/protocol.md defines edits made before a client's Welcome
as overwritten, so requests start only after every client has joined. The
join times come from a probe simulation of the same script without edits on
the same network seed; the event sequence before the first edit is the same
in both. Sets start REQUEST_SETTLE_MS after the last request, long enough for
a request diff lost three times in a row to be retransmitted.

Every round simulates the same script on the same seed, which is also the
determinism check: the report bytes must repeat.
"""

from __future__ import annotations

import hashlib
import json
import random

from common import PlainClock, Result, Round, run_rounds, self_peak_rss_mb, time_setups

CLIENTS = 6
OBJECTS = 100
SETS = 600
SET_WINDOW_MS = 1500
REQUEST_SETTLE_MS = 1000
BLACKOUT_MS = 100
SESSION = "bench"
NET = {"latencyMs": [1, 15], "order": "fifo", "dropClientToRelay": 0.05}
SETUP_SAMPLES = 9
SETUP_BATCH = 16  # set-ups per sample, so a sample spans many phases of the machine
SETUPS_PER_ROUND = 3  # samples taken after each round, so set-up is sampled over the run

LEAVES = {
    "ex.Counter": (["count"],),
    "ex.Label": (["text"], ["size"]),
    "ex.Plot": (["title"], ["label", "text"], ["label", "size"]),
}


def _client_ids() -> list[str]:
    return [f"c{i}" for i in range(CLIENTS)]


def join_times(sim_seed: int) -> dict[str, int]:
    """Virtual time at which each client's Welcome lands, without edits."""
    from linkstate.sync import run_simulation

    probe = {
        "session": SESSION,
        "durationMs": 2000,
        "net": dict(NET),
        "clients": [{"id": cid, "edits": []} for cid in _client_ids()],
    }
    joined = {}
    for line in run_simulation(probe, seed=sim_seed).trace:
        # t=<sent> relay-><cid> Welcome seq=0 bytes=<n> eta=<arrival>
        parts = line.split()
        if parts[2] == "Welcome" and parts[1].startswith("relay->") and parts[-1].startswith("eta="):
            joined.setdefault(parts[1][len("relay->") :], int(parts[-1][4:]))
    missing = set(_client_ids()) - set(joined)
    if missing:
        raise RuntimeError(f"clients {sorted(missing)} never joined in the probe")
    return joined


def make_script(seed: int) -> tuple[dict, int]:
    """The generated script and the network seed it runs on."""
    rng = random.Random(f"sim-lossy/{seed}")
    sim_seed = rng.randrange(1 << 31)
    t0 = max(join_times(sim_seed).values()) + 1
    ids = _client_ids()
    edits: dict[str, list] = {cid: [] for cid in ids}

    classes = [list(LEAVES)[j % 3] for j in range(OBJECTS)]
    rng.shuffle(classes)
    owners = [ids[j % CLIENTS] for j in range(OBJECTS)]
    rng.shuffle(owners)
    objects = []
    for j in range(OBJECTS):
        name = f"o{j:03d}"
        objects.append((name, classes[j]))
        edits[owners[j]].append({"atMs": t0 + j, "op": "request", "name": name, "class": classes[j]})

    sets_start = t0 + OBJECTS + REQUEST_SETTLE_MS
    setters = [ids[k % CLIENTS] for k in range(SETS)]
    rng.shuffle(setters)
    for k in range(SETS):
        name, cls = objects[rng.randrange(OBJECTS)]
        leaf = rng.choice(LEAVES[cls])
        value = k if leaf[-1] in ("count", "size") else f"set {k}"
        at = sets_start + (k * SET_WINDOW_MS) // SETS + rng.randrange(3)
        edits[setters[k]].append({"atMs": at, "op": "set", "path": [name] + leaf, "value": value})

    blackout_start = sets_start + SET_WINDOW_MS // 2 - BLACKOUT_MS // 2
    script = {
        "session": SESSION,
        "durationMs": sets_start + SET_WINDOW_MS,
        "flushIntervalMs": 10,
        "net": {**NET, "dropRelayToClientWindows": [[blackout_start, blackout_start + BLACKOUT_MS]]},
        "clients": [{"id": cid, "edits": sorted(edits[cid], key=lambda e: e["atMs"])} for cid in ids],
    }
    return script, sim_seed


def edit_count(script: dict) -> int:
    return sum(len(c["edits"]) for c in script["clients"])


def deterministic_counts(result, edits: int) -> dict[str, float]:
    """Counts that depend only on (script, seed): they repeat exactly."""
    rep = result.report
    applied = result.relay.applied_log(SESSION)
    seen = set()
    dups = 0
    for _, sender, payload in applied:
        key = (sender, json.dumps(payload, sort_keys=True))
        dups += key in seen
        seen.add(key)
    stats = list(rep["clients"].values())
    sent = sum(c["sentDiffs"] for c in stats)
    retransmits = sum(c["retransmits"] for c in stats)
    wire_bytes = sum(int(line.split(" bytes=")[1].split()[0]) for line in result.trace)
    return {
        "sim.wire_bytes_per_op": wire_bytes / edits,
        "sim.settle_virtual_ms": rep["virtualMs"],
        "sim.frames_sent": rep["network"]["framesSent"],
        "sim.frames_dropped": rep["network"]["framesDropped"],
        "sim.frames_delivered": rep["network"]["framesDelivered"],
        "relay.applied": len(applied),
        "relay.dup_applies": dups,
        "relay.useful_ratio": 1 - dups / len(applied) if applied else 1.0,
        "client.sent_diffs": sent,
        "client.retransmits": retransmits,
        "client.resyncs": sum(c["resyncs"] for c in stats),
        "client.stale_drops": sum(c["staleDrops"] for c in stats),
        "client.retransmit_ratio": retransmits / sent if sent else 0.0,
    }


def run(seed: int, seconds: float, tracer, clock=PlainClock()) -> Result:
    from linkstate.sync import load_script, run_simulation

    def set_up():
        script, sim_seed = make_script(seed)
        return load_script(script), sim_seed

    script, sim_seed = set_up()
    setups: list[float] = []
    edits = edit_count(script)
    reports: list[str] = []

    def one_round(index: int) -> Round:
        t0 = clock.mark()
        result = tracer.call("bench.op", run_simulation, script, seed=sim_seed)
        timed = clock.seconds(t0, clock.mark())
        report = result.report_json()
        counters = deterministic_counts(result, edits)
        reports.append(hashlib.sha256(report.encode()).hexdigest())
        problems = []
        if not result.report["converged"]:
            problems.append(f"round {index}: clients diverged from the relay")
        skipped = sum(c["skippedEdits"] for c in result.report["clients"].values())
        time_setups(setups, len(setups) + SETUPS_PER_ROUND, SETUP_BATCH, set_up, lambda made: None, clock)
        return Round(
            ops=edits,
            timed_s=timed,
            failed=skipped,
            latencies_ms=[],
            counters=counters,
            problems=problems,
        )

    rounds = run_rounds(one_round, seconds, min_rounds=2)  # the second round checks the first's report
    problems = [p for r in rounds for p in r.problems]
    if len(set(reports)) != 1:
        problems.append(f"report bytes differ between repeats of one seed: {sorted(set(reports))}")
    time_setups(setups, SETUP_SAMPLES, SETUP_BATCH, set_up, lambda made: None, clock)
    counts = rounds[0].counters
    extra = {
        "wire_bytes_per_op": (counts["sim.wire_bytes_per_op"], "bytes/op"),
        "settle_virtual_ms": (counts["sim.settle_virtual_ms"], "ms"),
    }
    return Result(rounds, setups, self_peak_rss_mb(), problems, extra)
