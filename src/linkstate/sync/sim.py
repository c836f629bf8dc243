"""Deterministic virtual-time simulator for sync scenarios.

A script (docs/sim-script.md) lists clients, their timed edits, and network
parameters. Everything runs on one event heap with a virtual clock and one
seeded generator, so a (script, seed) pair always produces the same delivery
trace and the same report, byte for byte. Frames really are encoded and
decoded at the pipe boundaries; nothing mutable crosses between actors.

load_script reads a script through one spec table per level: PERIODS for the
top-level periods, NET_OPTIONS and their checks, and EDIT_OPS with each
field's checks. A check is a predicate and the refusal it raises, so a bad
script fails with one ScriptError naming its first fault. docs/sim-script.md
lists the same tables, and tier-1 compares the two.

The driver (`_drive`) is shared with realtime runs (socket_transport): it
schedules the joins, the edits at their atMs and each client's flush ticks,
applies the settle rule and reads the end report. Only the loop's clock and
the network a client's engine is connected to differ.
"""

from __future__ import annotations

import hashlib
import heapq
from copy import copy
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable

from ..demo import build_demo_registry
from ..dynamic import LinkableDynamicObject, LinkableHashMap
from ..errors import LinkstateError, ScriptError, UnknownName
from ..linkable import LinkableObject, LinkableVariable
from ..statetree import diff, encode, encode_diff, parse_json, state_equivalent, validate_node
from .client import ClientEngine
from .relay import Relay
from .wire import Message, Reference, decode_frame, encode_fanout, encode_frame

# -- script loading ---------------------------------------------------------------


def _count(v: Any, least: int) -> bool:
    """A non-bool int of at least least."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _text(v: Any) -> bool:
    return isinstance(v, str) and v != ""


def _names(v: Any) -> bool:
    """A non-empty list of non-empty names."""
    return isinstance(v, list) and v != [] and all(map(_text, v))


def _span(v: Any, gap: int) -> bool:
    """[lo, hi] of non-negative ints with lo + gap <= hi."""
    return isinstance(v, list) and len(v) == 2 and _count(v[0], 0) and _count(v[1], 0) and v[0] + gap <= v[1]


def _probability(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v < 1


def _fail(msg: str) -> None:
    raise ScriptError(msg)


def _check(v: Any, checks, key: str, cid: str | None = None, op: str | None = None) -> None:
    """Refuse v, the value at key, with the refusal of its first check that
    returns false or raises. A refusal may name key, v, op and why (what the
    check raised); an edit's (cid given) starts with its client."""
    for ok, refusal in checks:
        try:
            passed, why = ok(v), None
        except (TypeError, ValueError, RecursionError) as e:
            passed, why = False, e
        if not passed:
            _fail(("" if cid is None else f"client {cid!r}: ") + refusal.format(key=key, v=v, op=op, why=why))


_POSITIVE = ((lambda v: _count(v, 1), "{key} must be a positive integer"),)

# The top-level periods, each a positive integer: key -> default.
PERIODS = {"durationMs": 2000, "flushIntervalMs": 10, "settleCapMs": 10000}

# The net options: key -> default, and key -> (check, refusal) pairs in check
# order.
NET_OPTIONS = {
    "latencyMs": 5,
    "order": "fifo",
    "dropClientToRelay": 0.0,
    "dropRelayToClientWindows": [],
    "ackTimeoutMs": 250,
    "gapTimeoutMs": 250,
}
_NET_CHECKS = {
    "latencyMs": (
        (lambda v: not isinstance(v, list) or _span(v, 0), "latencyMs range must be [lo, hi] with 0 <= lo <= hi"),
        (lambda v: isinstance(v, list) or _count(v, 0), "latencyMs must be a non-negative integer or [lo, hi]"),
    ),
    "order": ((lambda v: v in ("fifo", "reorder"), "net order must be 'fifo' or 'reorder'"),),
    "dropClientToRelay": ((_probability, "dropClientToRelay must be a probability in [0, 1)"),),
    "dropRelayToClientWindows": (
        (lambda v: isinstance(v, list), "dropRelayToClientWindows must be a list of [startMs, endMs]"),
        (lambda v: all(_span(w, 1) for w in v), "each drop window must be [startMs, endMs] with start < end"),
    ),
    "ackTimeoutMs": _POSITIVE,
    "gapTimeoutMs": _POSITIVE,
}

# Each op's fields in check order. A loaded edit holds atMs, op and these.
EDIT_OPS = {
    "request": ("name", "class"),
    "set": ("path", "value"),
    "remove": ("name",),
    "reorder": ("names",),
    "local": ("path", "class"),
    "global": ("path", "name"),
    "clear": ("path",),
}

_CLASSES = frozenset(build_demo_registry().class_names())
_STRING = (_text, "op {op!r} needs a non-empty string {key!r}")

# Each field's (check, refusal) pairs in check order. validate_node raises
# on a value that is no state tree.
_FIELD_CHECKS = {
    "name": (_STRING,),
    "class": (_STRING, (lambda v: v in _CLASSES, "unknown class {v!r}")),
    "path": ((_names, "op {op!r} needs 'path' as a list of names"),),
    "names": ((lambda v: _names(v) and len(set(v)) == len(v), "'reorder' needs a list of distinct names"),),
    "value": ((lambda v: validate_node(v) is None, "invalid 'value': {why}"),),
}


def load_script(data: Any) -> dict:
    """Parse and validate a simulation script into canonical dict form."""
    if isinstance(data, (str, bytes)):
        try:
            data = parse_json(data)
        except (ValueError, RecursionError) as e:
            _fail(f"script is not valid JSON: {e}")
    if not isinstance(data, dict):
        _fail("script must be a JSON object")
    script = {"session": data.get("session")}
    if not _text(script["session"]):
        _fail("script needs a non-empty 'session' string")
    for key, default in PERIODS.items():
        script[key] = data.get(key, default)
        _check(script[key], _POSITIVE, key)
    script["net"] = _load_net(data.get("net", {}))
    raw_clients = data.get("clients")
    if not isinstance(raw_clients, list) or not raw_clients:
        _fail("script needs a non-empty 'clients' list")
    clients = script["clients"] = []
    for entry in raw_clients:
        if not isinstance(entry, dict) or not _text(entry.get("id")):
            _fail("every client needs a non-empty string 'id'")
        cid = entry["id"]
        if any(c["id"] == cid for c in clients):
            _fail(f"duplicate client id {cid!r}")
        edits = entry.get("edits", [])
        if not isinstance(edits, list):
            _fail(f"client {cid!r}: 'edits' must be a list")
        clients.append({"id": cid, "edits": [_load_edit(cid, e) for e in edits]})
    return script


def _load_net(raw: Any) -> dict:
    if not isinstance(raw, dict):
        _fail("'net' must be an object")
    for key in raw:
        if key not in NET_OPTIONS:
            _fail(f"unknown net option {key!r}")
    # copy: a default list is not shared between scripts
    net = {key: raw.get(key, copy(default)) for key, default in NET_OPTIONS.items()}
    for key, checks in _NET_CHECKS.items():
        _check(net[key], checks, key)
    net["dropClientToRelay"] = float(net["dropClientToRelay"])
    return net


def _load_edit(cid: str, raw: Any) -> dict:
    if not isinstance(raw, dict):
        _fail(f"client {cid!r}: every edit must be an object")
    at, op = raw.get("atMs"), raw.get("op")
    if not _count(at, 0):
        _fail(f"client {cid!r}: edit needs a non-negative integer 'atMs'")
    if not isinstance(op, str) or op not in EDIT_OPS:
        _fail(f"client {cid!r}: unknown op {op!r}")
    edit = {"atMs": at, "op": op}
    for key in EDIT_OPS[op]:
        edit[key] = raw.get(key)
        _check(edit[key], _FIELD_CHECKS[key], key, cid, op)
    return edit


# -- event loop --------------------------------------------------------------------


class _Loop:
    """The driver's event heap on the virtual clock: time jumps to each event."""

    def __init__(self):
        self.now = 0
        self._heap: list = []
        self._n = 0

    def at(self, t: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (max(t, self.now), self._n, fn))
        self._n += 1

    def run(self) -> None:
        while self._heap:
            if self._wait(self._heap[0][0]):
                _, _, fn = heapq.heappop(self._heap)
                fn()

    def _wait(self, t: int) -> bool:
        """Move the clock toward t; False when it stopped short, so that the
        heap is looked at again."""
        self.now = t
        return True


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
    target no longer exists (a remote change or a resync removed it) or the
    target's verifier refuses a set value; scripts continue, the skip is
    counted."""
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
            if target.last_verify_failed:  # the verifier refused it: the old value stays
                return False
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


def _sha256(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def end_report(relay: Relay, session: str, clients: list[tuple[str, ClientEngine, int]]) -> dict:
    """The part of a run's report read off its end state, for virtual and
    realtime runs alike: overall convergence, the relay's sequence number
    and state hash, one entry per client (given as id, engine and skipped
    edits) and the diff from the relay's state to each client's that
    differs. A client that never joined has not converged, whatever its
    state, and is a divergence only where its state differs."""
    if session in relay.session_ids():
        relay_state = relay.session_state(session)
        relay_seq = relay.session_seq(session)
    else:
        relay_state, relay_seq = [], 0
    relay_text = encode(relay_state)
    report_clients = {}
    divergences = {}
    for cid, engine, skipped in clients:
        # The client's cached snapshot, encoded once: the same canonical text
        # is the same state, so only a client whose text differs is compared
        # with mapping key order aside.
        state = engine.root._snapshot()
        text = encode(state)
        same = text == relay_text or state_equivalent(state, relay_state)
        if not same:
            divergences[cid] = diff(relay_state, state)
        report_clients[cid] = {
            "converged": engine.joined and same,
            "stateHash": _sha256(text),
            "lastServerSeq": engine.last_server_seq,
            "skippedEdits": skipped,
            **engine.stats,
        }
    return {
        "converged": all(c["converged"] for c in report_clients.values()),
        "relay": {"serverSeq": relay_seq, "stateHash": _sha256(relay_text)},
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
        return encode_diff(self.report)


class _ScriptClient:
    """One scripted client on the driver's loop: its edits, its flush ticks
    and the settle rule. The network gives it an engine (connect)."""

    def __init__(self, cid, loop, script):
        self.cid = cid
        self.engine: ClientEngine | None = None
        self.loop = loop
        self.interval = script["flushIntervalMs"]
        self.duration = script["durationMs"]
        self.cap = self.duration + script["settleCapMs"]
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

    def wake(self) -> None:
        """Messages reached the engine: keep ticking until it settles."""
        if not self.engine.quiescent():
            self.ensure_tick(self.loop.now + self.interval)

    def on_frame(self, msg: Message) -> None:
        self.engine.on_message(msg, self.loop.now)
        self.wake()

    def run_edit(self, edit: dict) -> None:
        if not apply_edit(self.engine.root, edit):
            self.skipped_edits += 1
        self.ensure_tick(self.loop.now + self.interval)


def _drive(script: dict, loop: _Loop, relay: Relay, connect: Callable[[_ScriptClient], ClientEngine]) -> dict:
    """Run a loaded script on loop, virtual or realtime alike: joins at 0,
    each edit at its atMs, flush ticks until every client settles or the
    clock passes durationMs + settleCapMs. connect(client) gives each
    client its engine on the network that reaches relay. Returns
    end_report's part of the report."""
    clients = []
    for spec in script["clients"]:
        client = _ScriptClient(spec["id"], loop, script)
        client.engine = connect(client)
        clients.append(client)
    # joins first, then edits, then the flush heartbeats
    for c in clients:
        loop.at(0, lambda c=c: c.engine.hello(loop.now))
    for c, spec in zip(clients, script["clients"]):
        for edit in spec["edits"]:
            loop.at(edit["atMs"], lambda c=c, e=edit: c.run_edit(e))
    for c in clients:
        c.ensure_tick(script["flushIntervalMs"])
    loop.run()
    return end_report(relay, script["session"], [(c.cid, c.engine, c.skipped_edits) for c in clients])


def run_simulation(script: Any, seed: int = 0) -> SimResult:
    """Run one scripted scenario; returns the report plus the delivery trace."""
    script = load_script(script)
    session = script["session"]
    net = script["net"]

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

    latency = net["latencyMs"]
    fifo = net["order"] == "fifo"
    last_arrival: dict[str, int] = {}  # by pipe label

    def pipe(label: str, deliver: Callable[[Message], None], reference: Reference, drop: Callable[[int], bool]):
        """One direction of one link, as its send(msg, frame): latency, the
        ordering policy and drops. frame, when given, is encode_frame(msg).
        A frame that arrives is decoded against the receiver's reference
        (wire.decode_frame) and delivered."""

        def send(msg: Message, frame: bytes | None = None) -> None:
            if frame is None:
                frame = encode_frame(msg)
            counters["framesSent"] += 1
            sent = f"t={loop.now} {label} {msg.kind} seq={msg.server_seq} bytes={len(frame)}"
            if drop(loop.now):
                counters["framesDropped"] += 1
                trace.append(sent + " DROP")
                return
            arrival = loop.now + (rng.randint(*latency) if isinstance(latency, list) else latency)
            if fifo:
                arrival = last_arrival[label] = max(arrival, last_arrival.get(label, 0))
            trace.append(f"{sent} eta={arrival}")
            loop.at(arrival, lambda: arrive(frame))

        def arrive(frame: bytes) -> None:
            counters["framesDelivered"] += 1
            deliver(decode_frame(frame, reference))

        return send

    to_client: dict[str, Callable[[Message, bytes], None]] = {}

    def relay_receive(msg: Message) -> None:
        # every target is a scripted client, connected with both its pipes
        for target, out, frame in encode_fanout(relay.handle(msg)):
            to_client[target](out, frame)

    def connect(client: _ScriptClient) -> ClientEngine:
        cid = client.cid
        engine = ClientEngine(
            client_id=cid,
            session_id=session,
            registry=build_demo_registry(),
            send=pipe(f"{cid}->relay", relay_receive, relay.read_base, c2r_drop),
            ack_timeout_ms=net["ackTimeoutMs"],
            gap_timeout_ms=net["gapTimeoutMs"],
        )
        to_client[cid] = pipe(f"relay->{cid}", client.on_frame, engine.read_base, r2c_drop)
        return engine

    end = _drive(script, loop, relay, connect)
    trace_hash = _sha256("\n".join(trace))
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
