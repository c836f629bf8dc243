"""relay-loopback: a `linkstate serve` child and two SocketClients over loopback.

A round starts `linkstate serve --port 0` as a child process, reads its
address from the `relay listening on H:P` line, connects two SocketClients,
joins them and seeds a tree of COUNTERS ex.Counter entries (the timed set-up).
It then runs an open loop of EDITS edits at RATE per second, the two clients
alternating as writer. Each edit is timed from its due time until the peer's
live tree shows the value. With a tree this small, per-message transport and
relay-loop costs dominate, and the long-running serve process is the one
whose memory is measured.

Both clients run in this process, and each inbound message costs a client an
O(tree) publish check, so this process saturates first: near 400 edits/s
when the machine is quiet and near 220/s in its slow phases. RATE keeps the
loop well below that; at 300/s the latency swung threefold between runs.

Values grow with the edit index and an edit never targets a counter written
by one of the previous RECENT edits, so a later write cannot hide an
earlier one from the check while both are in flight.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import Result, Round, proc_cpu_s, proc_peak_rss_mb, run_rounds, time_setups

COUNTERS = 20
EDITS = 600
RATE = 100.0
RECENT = 12
DEADLINE_S = 2.0
START_TIMEOUT_S = 30.0
SESSION = "bench"
SETUP_SAMPLES = 9


def edit_plan(seed: int) -> list[tuple[str, int]]:
    """(counter name, value) per edit; the writer of edit i is client i % 2."""
    rng = random.Random(f"relay-loopback/{seed}")
    names = [f"n{j:02d}" for j in range(COUNTERS)]
    recent: list[str] = []
    plan = []
    for i in range(EDITS):
        name = rng.choice([n for n in names if n not in recent])
        recent = (recent + [name])[-RECENT:]
        plan.append((name, i + 1))
    return plan


class ServeProcess:
    """The serve child: started on port 0, always terminated and reaped."""

    def __init__(self, src: Path):
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "linkstate.cli", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.log: list[str] = []
        ready = threading.Event()
        self.address = None

        def drain():
            # keep reading so a chatty relay can never block on a full pipe
            for line in self.proc.stderr:
                self.log.append(line.rstrip())
                if self.address is None and line.startswith("relay listening on "):
                    host, port = line.split()[-1].rsplit(":", 1)
                    self.address = (host, int(port))
                    ready.set()
            ready.set()

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        if not ready.wait(START_TIMEOUT_S) or self.address is None:
            self.close()
            raise RuntimeError(f"serve did not report its address: {self.log[-5:]}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=5)
        self.proc.stderr.close()


def _counter(client, name):
    obj = client.engine.root.get_object(name)
    return obj.count.get_state()


def _pump(clients, t0: float) -> None:
    now_ms = int((time.perf_counter() - t0) * 1000)
    for c in clients:
        c.pump(now_ms)
        c.engine.flush(now_ms)


def _wait(clients, t0: float, done, timeout_s: float) -> bool:
    end = time.perf_counter() + timeout_s
    while time.perf_counter() < end:
        _pump(clients, t0)
        if done():
            return True
        time.sleep(0.0005)
    return False


def setup(src: Path):
    """Start serve, connect and join two clients, seed the counters."""
    from linkstate.sync.socket_transport import SocketClient

    relay = ServeProcess(src)
    clients = []
    try:
        for cid in ("a", "b"):
            clients.append(SocketClient(cid, SESSION, relay.address))
        t0 = time.perf_counter()
        if not _wait(clients, t0, lambda: all(c.engine.joined for c in clients), DEADLINE_S):
            raise RuntimeError("clients did not join")
        writer, peer = clients
        for j in range(COUNTERS):
            writer.engine.root.request_object(f"n{j:02d}", "ex.Counter")
        names = {f"n{j:02d}" for j in range(COUNTERS)}
        if not _wait(
            clients,
            t0,
            lambda: set(peer.engine.root.get_names()) == names and all(c.engine.quiescent() for c in clients),
            DEADLINE_S,
        ):
            raise RuntimeError("seed tree did not replicate")
        return relay, clients, t0
    except BaseException:
        close(relay, clients)
        raise


def open_loop(clients, t0: float, plan, tracer) -> tuple[list, float]:
    """Issue plan[i] at its due time; returns per-edit latency (None when it
    never reached the peer) and how late the generator ran, in ms."""
    start = time.perf_counter()
    due = [start + i / RATE for i in range(len(plan))]
    seen: list = [None] * len(plan)
    waiting: dict[int, tuple] = {}
    late_max = 0.0
    nxt = 0
    give_up = due[-1] + DEADLINE_S
    while (nxt < len(plan) or waiting) and time.perf_counter() < give_up:
        now = time.perf_counter()
        while nxt < len(plan) and due[nxt] <= now:
            name, value = plan[nxt]
            writer, peer = clients[nxt % 2], clients[1 - nxt % 2]
            late_max = max(late_max, now - due[nxt])
            tracer.call("bench.op", _edit, writer, name, value, int((now - t0) * 1000))
            waiting[nxt] = (peer, name, value)
            nxt += 1
        _pump(clients, t0)
        now = time.perf_counter()
        for i, (peer, name, value) in list(waiting.items()):
            if _counter(peer, name) >= value:
                seen[i] = (now - due[i]) * 1000
                del waiting[i]
        idle = due[nxt] - time.perf_counter() if nxt < len(plan) else 0.0002
        time.sleep(max(0.0, min(0.0002, idle)))
    return seen, late_max * 1000


def _edit(writer, name, value, now_ms: int) -> None:
    writer.engine.root.get_object(name).count.set_state(value)
    writer.engine.flush(now_ms)


def check(clients, t0: float, plan) -> list[str]:
    """Both clients settle on the same tree holding the last write of each counter."""
    from linkstate import statetree

    problems = []
    if not _wait(clients, t0, lambda: all(c.engine.quiescent() for c in clients), DEADLINE_S):
        problems.append("clients did not settle")
    a, b = (c.engine.root.get_session_state() for c in clients)
    if not statetree.state_equivalent(a, b):
        problems.append("the two clients ended in different states")
    final = dict(plan)
    for name, value in sorted(final.items()):
        got = [_counter(c, name) for c in clients]
        if got != [value, value]:
            problems.append(f"{name} is {got}, the last write was {value}")
    return problems


def close(relay, clients) -> None:
    for c in clients:
        c.close()
    relay.close()


def run(seed: int, seconds: float, tracer, src: Path) -> Result:
    plan = edit_plan(seed)
    setups: list[float] = []
    peak_rss = [0.0]

    def one_round(index: int) -> Round:
        s0 = time.perf_counter()
        relay, clients, t0 = setup(src)
        setups.append(time.perf_counter() - s0)
        try:
            cpu0 = proc_cpu_s(relay.proc.pid)
            w0 = time.perf_counter()
            with tracer.recording():
                seen, late_ms = open_loop(clients, t0, plan, tracer)
            wall = time.perf_counter() - w0
            cpu = proc_cpu_s(relay.proc.pid) - cpu0
            problems = [f"round {index}: {p}" for p in check(clients, t0, plan)]
            peak_rss[0] = max(peak_rss[0], proc_peak_rss_mb(relay.proc.pid))
        finally:
            close(relay, clients)
        latencies = [x for x in seen if x is not None]
        failed = sum(1 for x in seen if x is None or x > DEADLINE_S * 1000)
        if failed:
            problems.append(f"round {index}: {failed} edits did not reach the peer within {DEADLINE_S} s")
        stats = [c.engine.stats for c in clients]
        sent = sum(s["sentDiffs"] for s in stats)
        retransmits = sum(s["retransmits"] for s in stats)
        return Round(
            ops=len(plan),
            timed_s=wall,
            failed=failed,
            latencies_ms=latencies,
            counters={
                "relay.cpu_s": cpu,
                "relay.busy_ratio": cpu / wall,
                "gen.late_ms_max": late_ms,
                "client.sent_diffs": sent,
                "client.retransmits": retransmits,
                "client.resyncs": sum(s["resyncs"] for s in stats),
                "client.stale_drops": sum(s["staleDrops"] for s in stats),
                "client.retransmit_ratio": retransmits / sent if sent else 0.0,
            },
            problems=problems,
        )

    rounds = run_rounds(one_round, seconds)
    time_setups(setups, SETUP_SAMPLES, 1, lambda: setup(src), lambda made: close(made[0], made[1]))
    return Result(rounds, setups, peak_rss[0], [p for r in rounds for p in r.problems])
