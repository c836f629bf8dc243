"""Deterministic virtual-time simulator for sync scenarios.

A script (docs/sim-script.md) lists clients, their timed edits, and network
parameters. Everything runs on one event heap with a virtual clock and one
seeded generator, so a (script, seed) pair always produces the same delivery
trace and the same report, byte for byte. Frames really are encoded and
decoded at the pipe boundaries; nothing mutable crosses between actors.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable

from ..demo import build_demo_registry
from ..dynamic import LinkableDynamicObject, LinkableHashMap
from ..errors import LinkstateError, ScriptError, UnknownName
from ..linkable import LinkableObject, LinkableVariable
from ..statetree import diff, state_equivalent, validate_node
from .client import ClientEngine
from .relay import Relay, state_hash
from .wire import Message, decode_frame, encode_frame

EDIT_OPS = frozenset({"request", "set", "remove", "reorder", "local", "global", "clear"})


# -- script loading ---------------------------------------------------------------


def _fail(msg: str) -> None:
    raise ScriptError(msg)


def load_script(data: Any) -> dict:
    """Parse and validate a simulation script into canonical dict form."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            _fail(f"script is not valid JSON: {e}")
    if not isinstance(data, dict):
        _fail("script must be a JSON object")
    session = data.get("session")
    if not isinstance(session, str) or not session:
        _fail("script needs a non-empty 'session' string")

    duration = data.get("durationMs", 2000)
    interval = data.get("flushIntervalMs", 10)
    settle_cap = data.get("settleCapMs", 10000)
    for label, v in (("durationMs", duration), ("flushIntervalMs", interval), ("settleCapMs", settle_cap)):
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            _fail(f"{label} must be a positive integer")

    net = _load_net(data.get("net", {}))

    raw_clients = data.get("clients")
    if not isinstance(raw_clients, list) or not raw_clients:
        _fail("script needs a non-empty 'clients' list")
    registry = build_demo_registry()
    clients = []
    seen_ids = set()
    for entry in raw_clients:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str) or not entry["id"]:
            _fail("every client needs a non-empty string 'id'")
        cid = entry["id"]
        if cid in seen_ids:
            _fail(f"duplicate client id {cid!r}")
        seen_ids.add(cid)
        edits = entry.get("edits", [])
        if not isinstance(edits, list):
            _fail(f"client {cid!r}: 'edits' must be a list")
        clients.append({"id": cid, "edits": [_load_edit(cid, e, registry) for e in edits]})

    return {
        "session": session,
        "durationMs": duration,
        "flushIntervalMs": interval,
        "settleCapMs": settle_cap,
        "net": net,
        "clients": clients,
    }


def _load_net(raw: Any) -> dict:
    if not isinstance(raw, dict):
        _fail("'net' must be an object")
    known = {
        "latencyMs",
        "order",
        "dropClientToRelay",
        "dropRelayToClientWindows",
        "ackTimeoutMs",
        "gapTimeoutMs",
    }
    for key in raw:
        if key not in known:
            _fail(f"unknown net option {key!r}")
    latency = raw.get("latencyMs", 5)
    if isinstance(latency, list):
        if (
            len(latency) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in latency)
            or latency[0] > latency[1]
        ):
            _fail("latencyMs range must be [lo, hi] with 0 <= lo <= hi")
    elif not isinstance(latency, int) or isinstance(latency, bool) or latency < 0:
        _fail("latencyMs must be a non-negative integer or [lo, hi]")
    order = raw.get("order", "fifo")
    if order not in ("fifo", "reorder"):
        _fail("net order must be 'fifo' or 'reorder'")
    drop_c2r = raw.get("dropClientToRelay", 0.0)
    if not isinstance(drop_c2r, (int, float)) or isinstance(drop_c2r, bool) or not 0 <= drop_c2r < 1:
        _fail("dropClientToRelay must be a probability in [0, 1)")
    windows = raw.get("dropRelayToClientWindows", [])
    if not isinstance(windows, list):
        _fail("dropRelayToClientWindows must be a list of [startMs, endMs]")
    for w in windows:
        if (
            not isinstance(w, list)
            or len(w) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in w)
            or w[0] >= w[1]
        ):
            _fail("each drop window must be [startMs, endMs] with start < end")
    ack = raw.get("ackTimeoutMs", 250)
    gap = raw.get("gapTimeoutMs", 250)
    for label, v in (("ackTimeoutMs", ack), ("gapTimeoutMs", gap)):
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            _fail(f"{label} must be a positive integer")
    return {
        "latencyMs": latency,
        "order": order,
        "dropClientToRelay": float(drop_c2r),
        "dropRelayToClientWindows": windows,
        "ackTimeoutMs": ack,
        "gapTimeoutMs": gap,
    }


def _load_edit(cid: str, raw: Any, registry) -> dict:
    if not isinstance(raw, dict):
        _fail(f"client {cid!r}: every edit must be an object")
    at = raw.get("atMs")
    if not isinstance(at, int) or isinstance(at, bool) or at < 0:
        _fail(f"client {cid!r}: edit needs a non-negative integer 'atMs'")
    op = raw.get("op")
    if op not in EDIT_OPS:
        _fail(f"client {cid!r}: unknown op {op!r}")

    def need_str(key):
        v = raw.get(key)
        if not isinstance(v, str) or not v:
            _fail(f"client {cid!r}: op {op!r} needs a non-empty string {key!r}")
        return v

    def need_path():
        v = raw.get("path")
        if not isinstance(v, list) or not v or not all(isinstance(p, str) and p for p in v):
            _fail(f"client {cid!r}: op {op!r} needs 'path' as a list of names")
        return v

    edit = {"atMs": at, "op": op}
    if op == "request":
        edit["name"] = need_str("name")
        edit["class"] = need_str("class")
        if not registry.has(edit["class"]):
            _fail(f"client {cid!r}: unknown class {edit['class']!r}")
    elif op == "set":
        edit["path"] = need_path()
        value = raw.get("value")
        try:
            validate_node(value)
        except (TypeError, ValueError) as e:
            _fail(f"client {cid!r}: invalid 'value': {e}")
        edit["value"] = value
    elif op == "remove":
        edit["name"] = need_str("name")
    elif op == "reorder":
        names = raw.get("names")
        if (
            not isinstance(names, list)
            or not names
            or not all(isinstance(n, str) and n for n in names)
            or len(set(names)) != len(names)
        ):
            _fail(f"client {cid!r}: 'reorder' needs a list of distinct names")
        edit["names"] = names
    elif op == "local":
        edit["path"] = need_path()
        edit["class"] = need_str("class")
        if not registry.has(edit["class"]):
            _fail(f"client {cid!r}: unknown class {edit['class']!r}")
    elif op == "global":
        edit["path"] = need_path()
        edit["name"] = need_str("name")
    elif op == "clear":
        edit["path"] = need_path()
    return edit


# -- event loop and pipes ----------------------------------------------------------


class _Loop:
    def __init__(self):
        self.now = 0
        self._heap: list = []
        self._n = 0

    def at(self, t: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (max(t, self.now), self._n, fn))
        self._n += 1

    def run(self) -> None:
        while self._heap:
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()


class _Pipe:
    """One direction of one link: latency, ordering policy, optional drops."""

    def __init__(self, loop, rng, net, label, deliver, drop_check, trace, counters):
        self.loop = loop
        self.rng = rng
        self.latency = net["latencyMs"]
        self.fifo = net["order"] == "fifo"
        self.label = label
        self.deliver = deliver
        self.drop_check = drop_check
        self.trace = trace
        self.counters = counters
        self._last_arrival = 0

    def send(self, msg: Message) -> None:
        frame = encode_frame(msg)
        self.counters["framesSent"] += 1
        if self.drop_check(self.loop.now):
            self.counters["framesDropped"] += 1
            self.trace.append(
                f"t={self.loop.now} {self.label} {msg.kind} seq={msg.server_seq} bytes={len(frame)} DROP"
            )
            return
        if isinstance(self.latency, list):
            delay = self.rng.randint(self.latency[0], self.latency[1])
        else:
            delay = self.latency
        arrival = self.loop.now + delay
        if self.fifo:
            arrival = max(arrival, self._last_arrival)
            self._last_arrival = arrival
        self.trace.append(
            f"t={self.loop.now} {self.label} {msg.kind} seq={msg.server_seq} bytes={len(frame)} eta={arrival}"
        )
        self.loop.at(arrival, lambda: self._arrive(frame))

    def _arrive(self, frame: bytes) -> None:
        self.counters["framesDelivered"] += 1
        self.deliver(decode_frame(frame))


# -- scripted edits ----------------------------------------------------------------


def _resolve(root: LinkableHashMap, path: list[str]):
    """Walk a path from the root; wrappers are dereferenced mid-path."""
    try:
        obj: LinkableObject | None = root.get_object(path[0])
    except UnknownName:
        return None
    for name in path[1:]:
        if isinstance(obj, LinkableDynamicObject):
            obj = obj.get_object()
        if obj is None:
            return None
        obj = obj.get_linkable_child(name)
    return obj


def apply_edit(root: LinkableHashMap, edit: dict) -> bool:
    """Run one scripted edit on a replica. Returns False when the edit's
    target no longer exists (a remote change or a resync removed it);
    scripts continue, the skip is counted."""
    op = edit["op"]
    try:
        if op == "request":
            root.request_object(edit["name"], edit["class"])
        elif op == "remove":
            if edit["name"] not in root.get_names():
                return False
            root.remove_object(edit["name"])
        elif op == "reorder":
            live = [n for n in edit["names"] if n in root.get_names()]
            if not live:
                return False
            root.set_name_order(live)
        elif op == "set":
            target = _resolve(root, edit["path"])
            if not isinstance(target, LinkableVariable):
                return False
            target.set_state(edit["value"])
        else:
            target = _resolve(root, edit["path"])
            if not isinstance(target, LinkableDynamicObject):
                return False
            if op == "local":
                target.request_local_object(edit["class"])
            elif op == "global":
                target.request_global_object(edit["name"])
            else:
                target.remove_object()
    except LinkstateError:
        return False
    return True


# -- the end of a run ---------------------------------------------------------------


def end_report(relay: Relay, session: str, clients: list[tuple[str, ClientEngine, int]]) -> dict:
    """The part of a run's report read off its end state, for virtual and
    realtime runs alike: overall convergence, the relay's sequence number
    and state hash, one entry per client (given as id, engine and skipped
    edits) and the diff from the relay's state to each client's that
    differs."""
    if session in relay.session_ids():
        relay_state = relay.session_state(session)
        relay_seq = relay.session_seq(session)
    else:
        relay_state, relay_seq = [], 0
    report_clients = {}
    divergences = {}
    for cid, engine, skipped in clients:
        state = engine.root.get_session_state()
        same = state_equivalent(state, relay_state)
        if not same:
            divergences[cid] = diff(relay_state, state)
        report_clients[cid] = {
            "converged": same,
            "stateHash": state_hash(state),
            "lastServerSeq": engine.last_server_seq,
            "skippedEdits": skipped,
            **engine.stats,
        }
    return {
        "converged": all(c["converged"] for c in report_clients.values()),
        "relay": {"serverSeq": relay_seq, "stateHash": state_hash(relay_state)},
        "clients": report_clients,
        "divergences": divergences,
    }


# -- the simulation ---------------------------------------------------------------


@dataclass
class SimResult:
    report: dict
    trace: list[str] = field(repr=False, default_factory=list)
    relay: Relay | None = field(repr=False, default=None, compare=False)

    def report_json(self) -> str:
        return json.dumps(self.report, ensure_ascii=False, allow_nan=False, separators=(",", ":"))


class _SimClient:
    def __init__(self, cid, engine, loop, interval, duration, cap):
        self.cid = cid
        self.engine = engine
        self.loop = loop
        self.interval = interval
        self.duration = duration
        self.cap = cap
        self.tick_scheduled = False
        self.skipped_edits = 0

    def ensure_tick(self, at: int) -> None:
        if not self.tick_scheduled:
            self.tick_scheduled = True
            self.loop.at(at, self.tick)

    def tick(self) -> None:
        self.tick_scheduled = False
        self.engine.flush(self.loop.now)
        now = self.loop.now
        if now < self.duration or (not self.engine.quiescent() and now < self.cap):
            self.ensure_tick(now + self.interval)

    def on_frame(self, msg: Message) -> None:
        self.engine.on_message(msg, self.loop.now)
        if not self.engine.quiescent():
            self.ensure_tick(self.loop.now + self.interval)

    def run_edit(self, edit: dict) -> None:
        if not apply_edit(self.engine.root, edit):
            self.skipped_edits += 1
        self.ensure_tick(self.loop.now + self.interval)


def run_simulation(script: Any, seed: int = 0) -> SimResult:
    """Run one scripted scenario; returns the report plus the delivery trace."""
    script = load_script(script)
    session = script["session"]
    net = script["net"]
    duration = script["durationMs"]
    interval = script["flushIntervalMs"]
    cap = duration + script["settleCapMs"]

    loop = _Loop()
    rng = Random(seed)
    relay = Relay()
    trace: list[str] = []
    counters = {"framesSent": 0, "framesDropped": 0, "framesDelivered": 0}

    drop_p = net["dropClientToRelay"]
    windows = net["dropRelayToClientWindows"]

    def c2r_drop(now: int) -> bool:
        return drop_p > 0 and rng.random() < drop_p

    def r2c_drop(now: int) -> bool:
        return any(start <= now < end for start, end in windows)

    clients: dict[str, _SimClient] = {}
    to_client: dict[str, _Pipe] = {}

    def relay_receive(msg: Message) -> None:
        for target, out in relay.handle(msg):
            pipe = to_client.get(target)
            if pipe is not None:
                pipe.send(out)

    registry_factory = build_demo_registry
    for spec in script["clients"]:
        cid = spec["id"]
        up = _Pipe(loop, rng, net, f"{cid}->relay", relay_receive, c2r_drop, trace, counters)
        engine = ClientEngine(
            client_id=cid,
            session_id=session,
            registry=registry_factory(),
            send=up.send,
            ack_timeout_ms=net["ackTimeoutMs"],
            gap_timeout_ms=net["gapTimeoutMs"],
        )
        sim_client = _SimClient(cid, engine, loop, interval, duration, cap)
        clients[cid] = sim_client
        to_client[cid] = _Pipe(
            loop, rng, net, f"relay->{cid}", sim_client.on_frame, r2c_drop, trace, counters
        )

    # joins first, then edits, then the flush heartbeats
    for spec in script["clients"]:
        sc = clients[spec["id"]]
        loop.at(0, lambda sc=sc: sc.engine.hello(loop.now))
    for spec in script["clients"]:
        sc = clients[spec["id"]]
        for edit in spec["edits"]:
            loop.at(edit["atMs"], lambda sc=sc, e=edit: sc.run_edit(e))
    for spec in script["clients"]:
        clients[spec["id"]].ensure_tick(interval)

    loop.run()

    end = end_report(relay, session, [(sc.cid, sc.engine, sc.skipped_edits) for sc in clients.values()])
    trace_hash = "sha256:" + hashlib.sha256("\n".join(trace).encode("utf-8")).hexdigest()
    report = {
        "mode": "virtual",
        "session": session,
        "seed": seed,
        "converged": end["converged"],
        "virtualMs": loop.now,
        "relay": end["relay"],
        "clients": end["clients"],
        "network": counters,
        "traceHash": trace_hash,
        "divergences": end["divergences"],
    }
    return SimResult(report, trace, relay)
