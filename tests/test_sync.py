"""Wire framing, relay ordering, client engines, and scripted simulations."""

import importlib.resources
import json
import logging
import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from linkstate.demo import build_demo_registry
from linkstate.dynamic import LinkableHashMap
from linkstate.errors import MalformedMessage, ScriptError
from linkstate.linkable import LinkableVariable
from linkstate.statetree import apply_diff, diff, encode, state_equivalent
from linkstate.sync import relay as relay_module, socket_transport, wire
from linkstate.sync.sim import apply_edit
from linkstate.sync.socket_transport import RelayServer, SocketClient
from linkstate.sync.wire import MAX_FRAME_BYTES
from linkstate.sync import (
    ClientEngine,
    Framer,
    Message,
    Relay,
    decode_frame,
    encode_frame,
    load_script,
    run_simulation,
)


def scenario(name):
    path = importlib.resources.files("linkstate") / "scenarios" / f"{name}.json"
    return path.read_text(encoding="utf-8")


class TestWire:
    def test_roundtrip(self):
        msg = Message("Diff", "s1", "alice", 7, {"k": [1, 2.5, None, "x"]})
        assert decode_frame(encode_frame(msg)) == msg

    def test_frame_layout(self):
        frame = encode_frame(Message("Hello", "s", "a"))
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        body = json.loads(frame[4:].decode("utf-8"))
        assert list(body) == ["kind", "sessionId", "senderId", "serverSeq", "payload"]

    def test_framer_reassembles_arbitrary_chunks(self):
        msgs = [Message("Diff", "s", "a", i, {"v": i}) for i in range(1, 6)]
        stream = b"".join(encode_frame(m) for m in msgs)
        rng = random.Random(3)
        for _ in range(20):
            framer = Framer()
            got = []
            i = 0
            while i < len(stream):
                j = min(len(stream), i + rng.randint(1, 9))
                got.extend(framer.feed(stream[i:j]))
                i = j
            assert got == msgs

    def test_malformed_frames_rejected(self):
        with pytest.raises(MalformedMessage):
            decode_frame(b"\x00\x00\x00\x05notjs")
        with pytest.raises(MalformedMessage):
            decode_frame(b"\x00\x00\x00\x02{}")  # kind missing
        with pytest.raises(MalformedMessage):
            decode_frame(encode_frame(Message("Diff", "s", "a"))[:-1])
        with pytest.raises(MalformedMessage):
            encode_frame(Message("Nope", "s", "a"))
        bad_seq = b'{"kind":"Diff","sessionId":"s","senderId":"a","serverSeq":-1,"payload":null}'
        with pytest.raises(MalformedMessage):
            decode_frame(len(bad_seq).to_bytes(4, "big") + bad_seq)

    @pytest.mark.parametrize(
        "body, reason",
        [
            ("[1]", "must be a JSON object"),
            ('"Diff"', "must be a JSON object"),
            ('{"kind":["Diff"],"sessionId":"s","senderId":"a"}', "unknown message kind"),
            ('{"kind":"Diff","sessionId":1,"senderId":"a"}', "must be strings"),
            ('{"kind":"Diff","sessionId":"s","senderId":null}', "must be strings"),
            ('{"kind":"Diff","sessionId":"s","senderId":"a","serverSeq":true}', "non-negative integer"),
            ('{"kind":"Diff","sessionId":"s","senderId":"a","serverSeq":1.5}', "non-negative integer"),
            ('{"kind":"Diff","sessionId":"s","senderId":"a","serverSeq":"1"}', "non-negative integer"),
        ],
    )
    def test_a_body_that_is_no_message_is_malformed(self, body, reason):
        with pytest.raises(MalformedMessage, match=reason):
            decode_frame(_frame(body))
        with pytest.raises(MalformedMessage, match=reason):
            list(Framer().feed(_frame(body)))

    def test_a_frame_shorter_than_its_prefix_is_malformed(self):
        for frame in (b"", b"\x00", b"\x00\x00\x00"):
            with pytest.raises(MalformedMessage, match="shorter than its length prefix"):
                decode_frame(frame)

    def test_a_length_over_the_cap_is_malformed_before_any_body_is_read(self):
        prefix = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(MalformedMessage, match="exceeds limit"):
            decode_frame(prefix)
        with pytest.raises(MalformedMessage, match="exceeds limit"):
            list(Framer().feed(prefix))
        # the cap itself is allowed: that frame is only short of its body
        with pytest.raises(MalformedMessage, match="prefix says"):
            decode_frame(MAX_FRAME_BYTES.to_bytes(4, "big") + b"{}")

    def test_frame_nested_deeper_than_the_decoder_follows_is_malformed(self):
        depth = sys.getrecursionlimit() + 100
        body = ('{"kind":"Diff","sessionId":"s","senderId":"a","serverSeq":0,"payload":' + "[" * depth + "]" * depth + "}").encode()
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(MalformedMessage):
            decode_frame(frame)
        framer = Framer()
        with pytest.raises(MalformedMessage):
            list(framer.feed(frame))

    @pytest.mark.parametrize(
        "number", ["NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" * 5000, id="5000-digit-int")]
    )
    def test_numbers_no_state_may_hold_are_malformed(self, number):
        frame = _frame('{"kind":"Diff","sessionId":"s","senderId":"a","serverSeq":0,"payload":{"count":' + number + "}}")
        with pytest.raises(MalformedMessage):
            decode_frame(frame)
        with pytest.raises(MalformedMessage):
            list(Framer().feed(frame))


    def test_fan_out_frames_are_the_frames_of_their_messages(self):
        payload = [{"objectName": "plot☃", "className": "ex.Label", "sessionState": {"text": "Grüße, 世界"}}]
        msgs = [Message(kind, "sé", "ü", 3, payload) for kind in sorted(wire.KINDS)]
        outbound = [(f"t{i}", m) for i, m in enumerate(msgs + msgs[:2])]
        frames = list(wire.encode_fanout(outbound))
        assert [(t, m) for t, m, _ in frames] == outbound
        for _, msg, frame in frames:
            whole = wire.encode_diff(
                {"kind": msg.kind, "sessionId": msg.session_id, "senderId": msg.sender_id, "serverSeq": 3, "payload": payload}
            ).encode("utf-8")
            assert frame == encode_frame(msg) == len(whole).to_bytes(4, "big") + whole
            assert decode_frame(frame) == msg

    def test_a_fan_out_encodes_its_payload_once_per_relay_message(self, monkeypatch):
        relay = Relay()
        for i in range(32):
            relay.handle(Message("Hello", "s", f"c{i:02d}"))
        encoded = []
        real = wire.encode_diff
        monkeypatch.setattr(wire, "encode_diff", lambda d: encoded.append(d) or real(d))
        for count in range(3):
            payload = [{"objectName": "n", "className": "ex.Counter", "sessionState": {"count": count}}]
            outbound = relay.handle(Message("Diff", "s", "c00", 0, payload))
            assert len(list(wire.encode_fanout(outbound))) == 32
            # the payload alone, or an envelope that holds it
            carried = [d for d in encoded if d is payload or (type(d) is dict and d.get("payload") is payload)]
            assert len(carried) == 1


class TestRelay:
    def test_first_hello_welcome_empty(self):
        relay = Relay()
        out = relay.handle(Message("Hello", "s", "a"))
        assert [(t, m.kind, m.server_seq, m.payload) for t, m in out] == [("a", "Welcome", 0, [])]

    def test_repeat_hello_fullstate(self):
        relay = Relay()
        relay.handle(Message("Hello", "s", "a"))
        out = relay.handle(Message("Hello", "s", "a"))
        assert out[0][1].kind == "FullState"

    def test_diff_broadcast_with_ack_echo(self):
        relay = Relay()
        relay.handle(Message("Hello", "s", "a"))
        relay.handle(Message("Hello", "s", "b"))
        d = [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}]
        out = relay.handle(Message("Diff", "s", "a", 0, d))
        by_target = {t: m for t, m in out}
        assert by_target["a"].kind == "Ack"
        assert by_target["b"].kind == "Diff"
        assert by_target["a"].server_seq == by_target["b"].server_seq == 1
        assert by_target["b"].payload == d

    def test_fan_out_shares_one_diff_message(self):
        relay = Relay()
        for cid in ("a", "b", "c", "d"):
            relay.handle(Message("Hello", "s", cid))
        d = [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}]
        out = dict(relay.handle(Message("Diff", "s", "b", 0, d)))
        assert out["b"].kind == "Ack"
        assert out["a"] is out["c"] is out["d"] and out["a"].kind == "Diff"

    def test_seq_consecutive_and_state_sequential(self):
        rng = random.Random(8)
        relay = Relay()
        relay.handle(Message("Hello", "s", "a"))
        shadow = []
        for i in range(30):
            d = [
                {
                    "objectName": rng.choice("xyz"),
                    "className": "ex.Counter",
                    "sessionState": {"count": rng.randint(0, 9)},
                }
            ]
            out = relay.handle(Message("Diff", "s", "a", 0, d))
            assert out[0][1].server_seq == i + 1
            shadow = apply_diff(shadow, d, remove_missing=False)
        assert encode(relay.session_state("s")) == encode(shadow)

    @pytest.mark.parametrize(
        "payload",
        [
            {"x": 1},
            {"__value__": []},
            {"__removed__": True},
            [],
            [1, 2],
            [{"objectName": "x", "className": "ex.Counter", "extra": 1}],
            [{"objectName": 5, "className": "ex.Counter"}],
            [{"__order__": ["x"], "objectName": "x"}],
            None,
            7,
            "x",
        ],
    )
    def test_root_diff_that_is_not_an_entry_diff_is_dropped(self, payload):
        relay = Relay()
        relay.handle(Message("Hello", "s", "a"))
        relay.handle(Message("Hello", "s", "b"))
        d = [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}]
        relay.handle(Message("Diff", "s", "a", 0, d))
        state = relay.session_state("s")
        text = encode(state)
        assert relay.handle(Message("Diff", "s", "a", 0, payload)) == []
        assert relay.session_state("s") is state and encode(state) == text
        assert relay.session_seq("s") == 1
        assert len(relay.applied_log("s")) == 1
        # the empty diff is still a well-formed root diff
        assert [m.server_seq for _, m in relay.handle(Message("Diff", "s", "a", 0, {}))] == [2, 2]

    @staticmethod
    def _counters(relay, *names):
        relay.handle(Message("Hello", "s", "a"))
        start = [{"objectName": n, "className": "ex.Counter", "sessionState": {"count": 0}} for n in names]
        relay.handle(Message("Diff", "s", "a", 0, start))
        return start

    @pytest.mark.parametrize(
        "items",
        [
            [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": n}} for n in (1, 2)],
            [{"objectName": "x"}, {"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}],
            [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}, {"objectName": "x", "__removed__": True}],
            [{"objectName": "x", "__removed__": True}] * 2,
            [{"objectName": "x", "__removed__": True}, {"objectName": "x"}],
            [{"objectName": "x", "__removed__": True}] + [{"objectName": "x", "className": "", "sessionState": None}] * 2,
            [{"objectName": "x", "__removed__": True}, {"objectName": "x", "className": "ex.Counter", "__removed__": True}],
            [{"objectName": "x", "__removed__": True}, {"objectName": "x", "sessionState": {"count": 1}}],
            # a name that holds "className" is still a bare mention
            [{"objectName": "a className", "__removed__": True}, {"objectName": "a className"}],
        ],
    )
    def test_a_root_diff_that_names_an_entry_twice_is_dropped(self, items):
        relay = Relay()
        self._counters(relay, "c0", "x")
        state = relay.session_state("s")
        payload = [{"objectName": "c0", "className": "ex.Counter", "sessionState": {"count": 5}}] + items
        assert relay.handle(Message("Diff", "s", "a", 0, payload)) == []
        assert relay.session_state("s") is state
        assert relay.session_seq("s") == 1

    @pytest.mark.parametrize(
        "item, x",
        [
            # "__removed__": false is no removal
            (
                {"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}, "__removed__": False},
                {"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}},
            ),
            # a reference-shaped item over an existing entry is a pure mention
            ({"objectName": "x", "className": "", "sessionState": None}, None),
            ({"objectName": "x", "className": ""}, None),
            # an empty class with a state patches the entry it names
            (
                {"objectName": "x", "className": "", "sessionState": {"count": 2}},
                {"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 2}},
            ),
            # a class-only item naming an unknown entry creates it with a null state
            (
                [{"objectName": "x"}, {"objectName": "y", "className": "ex.Label"}],
                {"objectName": "y", "className": "ex.Label", "sessionState": None},
            ),
            # a state-only item naming an unknown entry is skipped
            ([{"objectName": "x"}, {"objectName": "y", "sessionState": {"count": 1}}], None),
            # a removal followed by a re-creation under another class
            (
                [{"objectName": "x", "__removed__": True}, {"objectName": "x", "className": "ex.Label", "sessionState": {"size": 1}}],
                {"objectName": "x", "className": "ex.Label", "sessionState": {"size": 1}},
            ),
        ],
        ids=[
            "removed-false",
            "reference",
            "reference-without-state",
            "empty-class-with-state",
            "class-only-creation",
            "state-only-unknown",
            "removal-then-recreation",
        ],
    )
    def test_each_item_rule_holds_in_the_value_apply_and_at_the_relay(self, item, x):
        # x is the entry the items leave in x's place, or the entry they
        # append, or None when the state stays as it was.
        items = item if isinstance(item, list) else [item]
        start = [{"objectName": n, "className": "ex.Counter", "sessionState": {"count": 0}} for n in ("c0", "x")]
        if x is None:
            expected = start
        elif x["objectName"] == "x":
            expected = [start[0], x]
        else:
            expected = start + [x]
        # read in place at the relay (one item per entry, in its own place)
        # and by name (a no-op order marker makes the diff longer)
        for payload in ([{"objectName": "c0"}] + items, [{"objectName": "c0"}] + items + [{"__order__": ["c0", "x"]}]):
            assert apply_diff(start, payload) == expected, payload
            relay = Relay()
            self._counters(relay, "c0", "x")
            assert [m.server_seq for _, m in relay.handle(Message("Diff", "s", "a", 0, payload))] == [2], payload
            assert encode(relay.session_state("s")) == encode(expected), payload

    def test_a_demotion_names_its_entry_twice_and_applies(self):
        relay = Relay()
        start = self._counters(relay, "c0", "x")
        demoted = [start[0], {"objectName": "x", "className": "", "sessionState": None}]
        d = diff(start, demoted)
        assert d == [
            {"objectName": "c0"},
            {"objectName": "x", "__removed__": True},
            {"objectName": "x", "className": "", "sessionState": None},
        ]
        assert [m.server_seq for _, m in relay.handle(Message("Diff", "s", "a", 0, d))] == [2]
        assert encode(relay.session_state("s")) == encode(demoted)

    def test_an_order_marker_that_repeats_a_name_is_ignored_and_a_late_joiner_converges(self, caplog):
        relay = Relay()
        start = self._counters(relay, "a", "b")
        relay.handle(Message("Hello", "s", "peer"))
        hostile = [{"objectName": "a"}, {"objectName": "b"}, {"__order__": ["b", "b", "a"]}]
        with caplog.at_level(logging.WARNING):
            out = relay.handle(decode_frame(encode_frame(Message("Diff", "s", "a", 0, hostile))))
        assert "ignoring malformed order marker" in caplog.text
        assert [(target, m.kind, m.server_seq) for target, m in out] == [("a", "Ack", 2), ("peer", "Diff", 2)]
        assert [e["objectName"] for e in relay.session_state("s")] == ["a", "b"]
        assert encode(relay.session_state("s")) == encode(start)
        late = ClientEngine("late", "s", build_demo_registry(), send=lambda m: None)
        for _, m in relay.handle(Message("Hello", "s", "late")):
            late.on_message(decode_frame(encode_frame(m)), 0)
        assert late.root.get_names() == ["a", "b"]
        assert encode(late.root.get_session_state()) == encode(relay.session_state("s"))

    def test_diff_nested_deeper_than_the_recursion_limit_is_dropped(self):
        relay = Relay()
        relay.handle(Message("Hello", "s", "a"))
        d = [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}]
        relay.handle(Message("Diff", "s", "a", 0, d))
        state = relay.session_state("s")
        deep = 0
        for _ in range(sys.getrecursionlimit() + 100):
            deep = {"k": deep}
        for payload in (
            [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": deep}}],
            [{"objectName": "y", "className": "ex.Counter", "sessionState": deep}],
        ):
            assert relay.handle(Message("Diff", "s", "a", 0, payload)) == []
        assert relay.session_state("s") is state
        assert relay.session_seq("s") == 1

    def test_malformed_dropped_quietly(self):
        relay = Relay()
        assert relay.handle(Message("Welcome", "s", "a")) == []
        assert relay.handle(Message("Diff", "", "a")) == []
        assert relay.handle(Message("Hello", "s", "")) == []
        assert relay.session_ids() == []

    def test_sessions_isolated(self):
        relay = Relay()
        relay.handle(Message("Hello", "s1", "a"))
        relay.handle(Message("Hello", "s2", "b"))
        d = [{"objectName": "x", "className": "ex.Label", "sessionState": {"text": "hi"}}]
        out = relay.handle(Message("Diff", "s1", "a", 0, d))
        assert [t for t, _ in out] == ["a"]
        assert relay.session_state("s2") == []
        assert relay.session_seq("s2") == 0

    def test_a_session_is_built_once_not_per_message(self, monkeypatch):
        built = []
        session_class = relay_module._Session
        monkeypatch.setattr(relay_module, "_Session", lambda: built.append(session_class()) or built[-1])
        relay = Relay()
        relay.handle(Message("Hello", "s", "a"))
        d = [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}]
        relay.handle(Message("Diff", "s", "a", 0, d))
        relay.handle(Message("Diff", "s", "a", 1, {}))
        assert len(built) == 1
        assert relay.session_seq("s") == 2 and built[0].server_seq == 2


class _Harness:
    """Zero-latency in-process wiring of one relay and n engines."""

    def __init__(self, ids, deliver_immediately=True, registry=build_demo_registry):
        self.relay = Relay()
        self.engines = {}
        self.queues = {cid: [] for cid in ids}
        self.deliver_immediately = deliver_immediately
        for cid in ids:
            self.engines[cid] = ClientEngine(
                client_id=cid,
                session_id="s",
                registry=registry(),
                send=lambda m, cid=cid: self._to_relay(m),
            )

    def _to_relay(self, msg):
        for target, out in self.relay.handle(decode_frame(encode_frame(msg))):
            self.queues[target].append(decode_frame(encode_frame(out)))
            if self.deliver_immediately:
                self.deliver(target)

    def deliver(self, cid, now=0):
        while self.queues[cid]:
            self.engines[cid].on_message(self.queues[cid].pop(0), now)

    def join_all(self, now=0):
        for cid, e in self.engines.items():
            e.hello(now)
            self.deliver(cid, now)

    def flush_all(self, now=0):
        for cid, e in self.engines.items():
            e.flush(now)
            self.deliver(cid, now)

    def assert_converged(self):
        relay_state = self.relay.session_state("s")
        for cid, e in self.engines.items():
            assert state_equivalent(e.root.get_session_state(), relay_state), cid


class TestClientEngine:
    def test_join_then_edit_reaches_peer(self):
        h = _Harness(["a", "b"])
        h.join_all()
        assert h.engines["a"].joined and h.engines["b"].joined
        h.engines["a"].root.request_object("c1", "ex.Counter")
        h.engines["a"].root.get_object("c1").count.set_state(4)
        h.flush_all()
        assert h.engines["b"].root.get_object("c1").count.get_state() == 4
        h.assert_converged()

    def test_first_flush_bootstraps_the_join(self):
        h = _Harness(["a"])
        e = h.engines["a"]
        assert not e.joined
        e.flush(0)  # no explicit hello() beforehand
        assert e.joined

    def test_one_message_per_flush(self):
        h = _Harness(["a", "b"])
        h.join_all()
        root = h.engines["a"].root
        root.request_object("c1", "ex.Counter")
        root.request_object("c2", "ex.Label")
        root.get_object("c1").count.set_state(9)
        h.flush_all()
        assert h.engines["a"].stats["sentDiffs"] == 1

    def test_flush_without_edits_sends_nothing(self):
        h = _Harness(["a", "b"])
        h.join_all()
        for _ in range(5):
            h.flush_all()
        assert h.engines["a"].stats["sentDiffs"] == 0
        assert h.engines["b"].stats["sentDiffs"] == 0

    def test_remote_application_never_echoes(self):
        h = _Harness(["a", "b"])
        h.join_all()
        h.engines["a"].root.request_object("c1", "ex.Counter")
        h.flush_all()
        for _ in range(4):
            h.flush_all()
        assert h.engines["b"].stats["sentDiffs"] == 0
        assert h.engines["b"].stats["recvDiffs"] == 1

    def test_concurrent_conflict_resolves_by_relay_order(self):
        h = _Harness(["a", "b"], deliver_immediately=False)
        h.join_all()
        for cid in ("a", "b"):
            h.engines[cid].root.request_object("shared", "ex.Counter")
            h.deliver(cid)
        h.flush_all()
        # both set the same leaf in the same frame, before seeing each other
        h.engines["a"].root.get_object("shared").count.set_state(100)
        h.engines["b"].root.get_object("shared").count.set_state(200)
        h.engines["a"].flush(0)
        h.engines["b"].flush(0)
        for _ in range(3):
            h.flush_all()
        h.assert_converged()
        # b's diff reached the relay second, so 200 is the winner everywhere
        assert h.engines["a"].root.get_object("shared").count.get_state() == 200

    def test_out_of_order_buffered(self):
        engine = ClientEngine("x", "s", build_demo_registry(), send=lambda m: None)
        engine.on_message(Message("Welcome", "s", "server", 0, []), 0)
        d1 = [{"objectName": "a", "className": "ex.Counter", "sessionState": {"count": 1}}]
        d2 = [{"objectName": "a", "className": "ex.Counter", "sessionState": {"count": 2}}]
        engine.on_message(Message("Diff", "s", "peer", 2, d2), 0)
        assert engine.root.get_names() == []  # buffered, gap open
        engine.on_message(Message("Diff", "s", "peer", 1, d1), 0)
        assert engine.root.get_object("a").count.get_state() == 2
        assert engine.last_server_seq == 2
        assert not engine.quiescent()  # frame work still scheduled
        engine.flush(0)
        assert engine.quiescent()  # and the flush published nothing

    def test_gap_timeout_requests_resync(self):
        sent = []
        engine = ClientEngine(
            "x", "s", build_demo_registry(), send=sent.append, gap_timeout_ms=100
        )
        engine.on_message(Message("Welcome", "s", "server", 0, []), 0)
        d9 = [{"objectName": "z", "className": "ex.Label", "sessionState": {"text": "t"}}]
        engine.on_message(Message("Diff", "s", "peer", 9, d9), 50)
        engine.flush(100)
        assert [m.kind for m in sent] == []
        engine.flush(150)
        assert [m.kind for m in sent] == ["Hello"]
        full = [{"objectName": "z", "className": "ex.Label", "sessionState": {"text": "t", "size": 12}}]
        engine.on_message(Message("FullState", "s", "server", 9, full), 160)
        assert engine.last_server_seq == 9
        assert engine.root.get_object("z").text.get_state() == "t"
        engine.flush(170)
        assert engine.quiescent()
        assert [m.kind for m in sent] == ["Hello"]  # nothing re-published

    def test_out_of_order_diffs_wait_in_the_buffer_and_the_gap_is_timed_from_the_first(self):
        sent = []
        engine = ClientEngine("x", "s", build_demo_registry(), send=sent.append, gap_timeout_ms=100)

        def counter(n):
            return [{"objectName": "c", "className": "ex.Counter", "sessionState": {"count": n}}]

        def receive(seq, now):
            engine.on_message(Message("Diff", "s", "peer", seq, counter(seq)), now)
            stats = engine.stats
            counts = (stats["recvDiffs"], stats["staleDrops"], stats["resyncs"])
            value = engine.root.get_object("c").count.get_state()
            return engine.last_server_seq, sorted(engine._buffer), engine._gap_since_ms, counts, value

        engine.on_message(Message("Welcome", "s", "server", 0, counter(0)), 0)
        assert receive(3, 0) == (0, [3], 0, (0, 0, 0), 0)
        assert receive(4, 50) == (0, [3, 4], 0, (0, 0, 0), 0)
        assert receive(3, 60) == (0, [3, 4], 0, (0, 0, 0), 0)  # a second copy waits as one
        assert receive(1, 80) == (1, [3, 4], 0, (1, 0, 0), 1)  # 2 is still missing: the timer keeps its start
        engine.flush(99)
        assert sent == []
        engine.flush(100)
        assert [m.kind for m in sent] == ["Hello"] and engine._gap_since_ms == 100
        assert engine.stats["resyncs"] == 1
        assert receive(1, 110) == (1, [3, 4], 100, (1, 1, 1), 1)
        assert receive(2, 120) == (4, [], None, (4, 1, 1), 4)
        assert [m.kind for m in sent] == ["Hello"]

    def test_retransmit_until_acked(self):
        sent = []
        engine = ClientEngine(
            "x", "s", build_demo_registry(), send=sent.append, ack_timeout_ms=100
        )
        engine.on_message(Message("Welcome", "s", "server", 0, []), 0)
        engine.root.request_object("c", "ex.Counter")
        engine.flush(10)
        assert [m.kind for m in sent] == ["Diff"]
        engine.flush(50)
        assert len(sent) == 1
        engine.flush(120)
        assert len(sent) == 2
        assert sent[0].payload == sent[1].payload
        assert engine.stats["retransmits"] == 1
        engine.on_message(Message("Ack", "s", "x", 1, sent[0].payload), 130)
        assert engine.pending_count == 0
        engine.flush(300)
        assert len(sent) == 2

    def test_lost_broadcast_recovered_and_duplicates_harmless(self):
        h = _Harness(["a", "b"], deliver_immediately=False)
        h.join_all()
        h.engines["a"].root.request_object("c", "ex.Counter")
        h.engines["a"].flush(0)
        # the whole seq-1 broadcast is lost; a's retransmit gets applied again
        h.queues["a"].clear()
        h.queues["b"].clear()
        h.engines["a"].flush(500)  # past ack timeout: resends
        h.deliver("a", 500)  # Ack seq 2 buffered (gap: seq 1 never arrived)
        h.deliver("b", 500)
        assert h.relay.session_seq("s") == 2  # applied twice, idempotent
        # the seq gap can only heal through the resync timeout
        h.flush_all(800)
        h.flush_all(1200)
        h.assert_converged()
        assert h.engines["a"].pending_count == 0

    def test_own_ack_replay_restores_relay_order(self):
        h = _Harness(["a", "b"], deliver_immediately=False)
        h.join_all()
        for cid in ("a", "b"):
            h.engines[cid].root.request_object("shared", "ex.Counter")
            h.engines[cid].flush(0)
        h.deliver("a")
        h.deliver("b")
        # a writes 1 (seq n), b writes 2 (seq n+1); a sees b's diff after its own edit
        h.engines["a"].root.get_object("shared").count.set_state(1)
        h.engines["a"].flush(1)
        h.engines["b"].root.get_object("shared").count.set_state(2)
        h.engines["b"].flush(1)
        h.flush_all(2)
        h.assert_converged()
        assert h.engines["a"].root.get_object("shared").count.get_state() == 2

    def test_a_diff_at_or_below_the_last_server_seq_is_dropped_as_stale(self):
        engine = ClientEngine("x", "s", build_demo_registry(), send=lambda m: None)
        welcome = [{"objectName": "c1", "className": "ex.Counter", "sessionState": {"count": 0}}]
        engine.on_message(Message("Welcome", "s", "server", 3, welcome), 0)
        engine.flush(0)
        before = (encode(engine.root.get_session_state()), encode(engine._published), engine.last_server_seq)
        late = [{"objectName": "c1", "className": "ex.Counter", "sessionState": {"count": 9}}]
        for seq, kind in ((3, "Diff"), (2, "Diff"), (1, "Ack")):
            engine.on_message(Message(kind, "s", "peer", seq, late), 0)
        assert engine.stats["staleDrops"] == 3
        assert engine.stats["recvDiffs"] == engine.stats["acks"] == 0
        assert (encode(engine.root.get_session_state()), encode(engine._published), engine.last_server_seq) == before
        assert engine.quiescent()

    def test_a_created_entry_takes_its_state_whole_so_a_removed_key_stays_removed(self):
        # An entry class whose default is a mapping: a creates the entry and
        # removes a default key in one frame; b creates the entry from the
        # relay's state and must not publish the default key back.
        def registry():
            r = build_demo_registry()
            r.register("t.Doc", lambda: LinkableVariable({"a": 1, "b": 2}))
            return r

        h = _Harness(["a", "b"], registry=registry)
        h.join_all()
        h.engines["a"].root.request_object("doc", "t.Doc").set_state({"b": {"__removed__": True}})
        h.flush_all(1)
        h.flush_all(2)
        assert h.relay.session_state("s")[0]["sessionState"] == {"a": 1}
        assert h.engines["b"].root.get_object("doc").get_state() == {"a": 1}
        h.assert_converged()

    @staticmethod
    def _two_counters(sent):
        engine = ClientEngine("x", "s", build_demo_registry(), send=sent.append)
        welcome = [
            {"objectName": n, "className": "ex.Counter", "sessionState": {"count": 0}} for n in ("c1", "c2")
        ]
        engine.on_message(Message("Welcome", "s", "server", 0, welcome), 0)
        engine.flush(0)
        return engine

    def test_an_unflushed_local_edit_survives_an_inbound_diff_and_is_published(self):
        sent = []
        engine = self._two_counters(sent)
        engine.root.get_object("c1").count.set_state(5)
        remote = [{"objectName": "c1"}, {"objectName": "c2", "className": "ex.Counter", "sessionState": {"count": 7}}]
        engine.on_message(Message("Diff", "s", "peer", 1, remote), 1)
        assert [engine.root.get_object(n).count.get_state() for n in ("c1", "c2")] == [5, 7]
        engine.flush(1)
        assert [m.payload for m in sent] == [
            [{"objectName": "c1", "className": "ex.Counter", "sessionState": {"count": 5}}, {"objectName": "c2"}]
        ]

    def test_a_diff_naming_an_entry_twice_never_reaches_a_client_that_removed_it(self):
        # b removes x and flushes; before its diff reaches the relay, a sends
        # c0: 5 with two items for x. b's shadow no longer holds x, so it
        # would create x from each item.
        relay = Relay()
        in_flight = []
        b = ClientEngine("b", "s", build_demo_registry(), send=in_flight.append)

        def to_relay(msg, now):
            for target, out in relay.handle(decode_frame(encode_frame(msg))):
                if target == "b":
                    b.on_message(decode_frame(encode_frame(out)), now)

        b.hello(0)
        to_relay(in_flight.pop(), 0)
        to_relay(Message("Hello", "s", "a"), 0)
        counters = [{"objectName": n, "className": "ex.Counter", "sessionState": {"count": 0}} for n in ("c0", "x")]
        to_relay(Message("Diff", "s", "a", 0, counters), 0)
        b.root.remove_object("x")
        b.flush(1)
        twice = [{"objectName": "x", "className": "ex.Counter", "sessionState": {"count": n}} for n in (1, 2)]
        to_relay(Message("Diff", "s", "a", 0, [{"objectName": "c0", "className": "ex.Counter", "sessionState": {"count": 5}}] + twice), 2)
        to_relay(in_flight.pop(), 3)
        assert in_flight == []
        assert encode(relay.session_state("s")) == encode(counters[:1])
        assert encode(b.root.get_session_state()) == encode(counters[:1])
        b.flush(4)
        assert in_flight == [] and b.quiescent()

    def test_an_order_marker_that_repeats_a_name_neither_repeats_nor_removes_an_entry(self):
        sent = []
        engine = self._two_counters(sent)
        before = encode(engine.root.get_session_state())
        hostile = [{"objectName": "c1"}, {"objectName": "c2"}, {"__order__": ["c2", "c2", "c1"]}]
        engine.on_message(Message("Diff", "s", "peer", 1, hostile), 1)
        assert [e["objectName"] for e in engine._published] == ["c1", "c2"]
        assert engine.root.get_names() == ["c1", "c2"]
        assert encode(engine.root.get_session_state()) == before
        engine.flush(2)
        assert sent == [] and engine.quiescent()  # no removal published

    def test_a_float_leaf_a_wire_payload_reaches_is_stored_canonical(self):
        sent = []
        engine = self._two_counters(sent)
        payload = json.loads('[{"objectName":"c1","className":"ex.Counter","sessionState":{"count":5.0}},{"objectName":"c2"}]')
        engine.on_message(Message("Diff", "s", "peer", 1, payload), 1)
        value = engine.root.get_object("c1").count._snapshot()
        assert value == 5 and type(value) is int
        engine.flush(1)
        assert sent == []  # the stored 5 is the 5.0 the relay holds: nothing to publish

    def test_foreign_session_ignored(self):
        engine = ClientEngine("x", "s", build_demo_registry(), send=lambda m: None)
        engine.on_message(Message("Welcome", "other", "server", 5, []), 0)
        assert not engine.joined

    @staticmethod
    def _edit_after(payload):
        """The Diff a client joined to two counters publishes for a one-field
        edit, after an in-sequence Diff carrying payload (None: no Diff)."""
        sent = []
        engine = ClientEngine("x", "s", build_demo_registry(), send=sent.append)
        welcome = [
            {"objectName": n, "className": "ex.Counter", "sessionState": {"count": 0}} for n in ("c1", "c2")
        ]
        engine.on_message(Message("Welcome", "s", "server", 0, welcome), 0)
        engine.flush(0)
        if payload is not None:
            engine.on_message(Message("Diff", "s", "peer", 1, payload), 0)
            assert engine.last_server_seq == 1
        engine.flush(0)
        engine.root.get_object("c1").count.set_state(5)
        engine.flush(0)
        assert [m.kind for m in sent] == ["Diff"]
        return sent[0].payload

    @pytest.mark.parametrize("payload", [{"x": 1}, "garbage", {}, [5], [{"objectName": "c1"}, 5]])
    def test_a_diff_that_is_no_entry_diff_changes_nothing(self, payload):
        expected = self._edit_after(None)
        assert expected == [
            {"objectName": "c1", "className": "ex.Counter", "sessionState": {"count": 5}},
            {"objectName": "c2"},
        ]
        assert self._edit_after(payload) == expected

    @pytest.mark.parametrize("local_edit", [None, "remove x"])
    def test_a_diff_that_does_not_apply_changes_neither_state(self, local_edit, caplog):
        # Only a foreign relay sends such a diff: two creations of n over the
        # shadow, or two of x over a root that has removed x (not yet
        # published).
        engine = ClientEngine("x", "s", build_demo_registry(), send=lambda m: None)
        welcome = [
            {"objectName": n, "className": "ex.Counter", "sessionState": {"count": 0}} for n in ("c", "x")
        ]
        engine.on_message(Message("Welcome", "s", "server", 0, welcome), 0)
        named = "n" if local_edit is None else "x"
        twice = [{"objectName": named, "className": "ex.Counter", "sessionState": {"count": k}} for k in (1, 2)]
        if local_edit is not None:
            engine.root.remove_object("x")
        published, snapshot = engine._published, engine.root._snapshot()
        with caplog.at_level(logging.WARNING):
            engine.on_message(Message("Diff", "s", "peer", 1, [{"objectName": "c"}] + twice), 1)
        assert engine.last_server_seq == 1
        assert engine._published is published and engine.root._snapshot() is snapshot
        assert "does not apply" in caplog.text
        # the stream goes on
        engine.on_message(Message("Diff", "s", "peer", 2, [welcome[0] | {"sessionState": {"count": 3}}]), 2)
        assert engine.last_server_seq == 2 and engine.root.get_object("c").count.get_state() == 3

    def test_a_buffered_diff_read_against_a_list_that_changed_before_it_applies(self):
        engine = ClientEngine("x", "s", build_demo_registry(), send=lambda m: None)
        a, b = ({"objectName": n, "className": "ex.Counter", "sessionState": {"count": 0}} for n in ("a", "b"))
        engine.on_message(Message("Welcome", "s", "server", 0, [a, b]), 0)
        # seq 2 comes first: b's count, read in place against the list [a, b]
        later = decode_frame(encode_frame(Message("Diff", "s", "peer", 2, [{"objectName": "a"}, b | {"sessionState": {"count": 2}}])), engine.read_base)
        engine.on_message(later, 1)
        assert engine.last_server_seq == 0
        # seq 1 removes a and creates c: a new list of the same length
        c = {"objectName": "c", "className": "ex.Counter", "sessionState": {"count": 1}}
        engine.on_message(Message("Diff", "s", "peer", 1, [{"objectName": "a", "__removed__": True}, {"objectName": "b"}, c]), 2)
        assert engine.last_server_seq == 2
        assert encode(engine.root.get_session_state()) == encode([b | {"sessionState": {"count": 2}}, c])

    def test_a_message_of_an_unexpected_kind_is_dropped_with_a_warning(self, caplog):
        sent = []
        engine = ClientEngine("x", "s", build_demo_registry(), send=sent.append)
        engine.on_message(Message("Welcome", "s", "server", 0, []), 0)
        with caplog.at_level(logging.WARNING):
            engine.on_message(Message("Hello", "s", "peer"), 0)
        assert "unexpected Hello message dropped" in caplog.text
        assert engine.last_server_seq == 0 and engine.quiescent() and sent == []

    def test_a_full_state_that_leaves_a_later_diff_buffered_starts_the_gap_timer(self):
        sent = []
        engine = ClientEngine("x", "s", build_demo_registry(), send=sent.append, gap_timeout_ms=250)
        engine.on_message(Message("Welcome", "s", "server", 0, []), 0)
        engine.on_message(Message("Diff", "s", "peer", 3, {}), 0)  # gap: 1 and 2 missing
        engine.on_message(Message("FullState", "s", "server", 1, []), 100)  # 2 is still missing
        assert engine.last_server_seq == 1 and not engine.quiescent()
        engine.flush(349)
        assert engine.stats["resyncs"] == 0
        engine.flush(350)  # the gap is timed from the FullState
        assert engine.stats["resyncs"] == 1 and sent[-1].kind == "Hello"

    def test_an_empty_diff_applies_without_a_warning(self, caplog):
        engine = ClientEngine("x", "s", build_demo_registry(), send=lambda m: None)
        engine.on_message(Message("Welcome", "s", "server", 0, []), 0)
        with caplog.at_level(logging.DEBUG):
            engine.on_message(Message("Diff", "s", "peer", 1, {}), 0)
        assert engine.last_server_seq == 1
        assert caplog.records == []


class TestScriptLoading:
    def test_defaults_filled(self):
        s = load_script('{"session":"s","clients":[{"id":"a"}]}')
        assert s["durationMs"] == 2000
        assert s["net"]["order"] == "fifo"
        assert s["clients"][0]["edits"] == []

    def test_rejections(self):
        bad = [
            "not json",
            "[]",
            '{"session":"","clients":[{"id":"a"}]}',
            '{"session":"s","clients":[]}',
            '{"session":"s","clients":[{"id":"a"},{"id":"a"}]}',
            '{"session":"s","clients":[{"id":"a","edits":[{"atMs":0,"op":"warp"}]}]}',
            '{"session":"s","clients":[{"id":"a","edits":[{"atMs":-1,"op":"remove","name":"x"}]}]}',
            '{"session":"s","clients":[{"id":"a","edits":[{"atMs":0,"op":"request","name":"x","class":"nope"}]}]}',
            '{"session":"s","net":{"order":"chaos"},"clients":[{"id":"a"}]}',
            '{"session":"s","net":{"latencyMs":[5,1]},"clients":[{"id":"a"}]}',
            '{"session":"s","net":{"dropClientToRelay":1.5},"clients":[{"id":"a"}]}',
            '{"session":"s","net":{"dropRelayToClientWindows":[[5,5]]},"clients":[{"id":"a"}]}',
            '{"session":"s","net":{"bogus":1},"clients":[{"id":"a"}]}',
        ]
        for text in bad:
            with pytest.raises(ScriptError):
                load_script(text)


class TestSimulation:
    def test_single_silent_client(self):
        result = run_simulation('{"session":"s","durationMs":100,"clients":[{"id":"solo"}]}')
        r = result.report
        assert r["converged"] is True
        assert r["relay"]["serverSeq"] == 0
        assert r["network"]["framesSent"] == 2  # Hello out, Welcome back
        assert r["clients"]["solo"]["sentDiffs"] == 0

    def test_two_client_disjoint_scenario(self):
        result = run_simulation(scenario("two-client-disjoint"), seed=1)
        r = result.report
        assert r["converged"] is True
        assert r["divergences"] == {}
        plain = _by_name(result)
        assert plain["counter"]["count"] == 6
        assert plain["title"]["text"] == "hello"
        assert plain["title"]["size"] == 18

    def test_conflict_scenario_all_agree_on_one_winner(self):
        result = run_simulation(scenario("three-client-conflict"), seed=42)
        assert result.report["converged"] is True
        plain = _by_name(result)
        assert plain["shared"]["count"] in (112, 223, 333)
        assert plain["extra"]["text"] == "carol was here"
        # the winning value is whatever the highest-seq write to that leaf carried
        winner = None
        for _seq, _sender, d in result.relay.applied_log("demo"):
            for entry in d if isinstance(d, list) else []:
                sub = entry.get("sessionState")
                if entry.get("objectName") == "shared" and isinstance(sub, dict) and "count" in sub:
                    winner = sub["count"]
        assert plain["shared"]["count"] == winner

    def test_drop_scenario_recovers(self):
        result = run_simulation(scenario("drop-and-resync"), seed=7)
        r = result.report
        assert r["converged"] is True
        assert r["network"]["framesDropped"] > 0
        recoveries = sum(
            c["retransmits"] + c["resyncs"] for c in r["clients"].values()
        )
        assert recoveries > 0

    def test_seed_changes_trace_not_convergence(self):
        a = run_simulation(scenario("three-client-conflict"), seed=1)
        b = run_simulation(scenario("three-client-conflict"), seed=2)
        assert a.report["converged"] and b.report["converged"]
        assert a.report["traceHash"] != b.report["traceHash"]

    def test_identical_seed_identical_report_and_trace(self):
        for name in ("two-client-disjoint", "three-client-conflict", "drop-and-resync"):
            first = run_simulation(scenario(name), seed=9)
            second = run_simulation(scenario(name), seed=9)
            assert first.report_json() == second.report_json(), name
            assert first.trace == second.trace, name

    def test_a_run_whose_only_hello_is_lost_reports_an_empty_relay(self):
        script = {"session": "s", "durationMs": 1, "settleCapMs": 1, "net": {"dropClientToRelay": 0.5}, "clients": [{"id": "solo"}]}
        lost = run_simulation(script, seed=1).report  # the one Hello is dropped
        assert lost["network"] == {"framesSent": 1, "framesDropped": 1, "framesDelivered": 0}
        joined = run_simulation(script, seed=0).report  # the relay holds the session, empty
        assert joined["network"]["framesDelivered"] == 2
        assert lost["relay"] == joined["relay"] and lost["relay"]["serverSeq"] == 0

    def test_a_run_cut_before_a_lost_fan_out_is_repaired_reports_the_divergence(self):
        script = {
            "session": "s",
            "durationMs": 100,
            "settleCapMs": 1,  # too short for a's retransmit
            "net": {"dropRelayToClientWindows": [[55, 100]]},
            "clients": [{"id": "a", "edits": [{"atMs": 50, "op": "request", "name": "c", "class": "ex.Counter"}]}, {"id": "b"}],
        }
        r = run_simulation(script).report
        assert r["converged"] is False
        assert [cid for cid, c in r["clients"].items() if not c["converged"]] == ["b"]
        assert r["divergences"] == {"b": [{"objectName": "c", "__removed__": True}]}

    def test_a_scripted_edit_the_replica_refuses_is_skipped(self):
        root = LinkableHashMap(build_demo_registry())
        assert apply_edit(root, {"op": "request", "name": "x", "class": "ex.Nope"}) is False
        assert root.get_names() == []

    @pytest.mark.xfail(
        strict=True,
        reason="a remote write overwrites an unpublished local write to the same site, which is never sent; "
        "ROADMAP item 16: rebase unpublished local edits over each inbound diff",
    )
    def test_a_local_write_made_before_a_remote_write_to_its_site_arrives_is_published(self):
        script = {
            "session": "demo",
            "flushIntervalMs": 10,
            "net": {"latencyMs": 8},
            "clients": [
                {
                    "id": "a",
                    "edits": [
                        {"atMs": 50, "op": "request", "name": "c", "class": "ex.Counter"},
                        {"atMs": 101, "op": "set", "path": ["c", "count"], "value": 1},
                    ],
                },
                # after a's diff is sent, before b's next flush
                {"id": "b", "edits": [{"atMs": 122, "op": "set", "path": ["c", "count"], "value": 2}]},
            ],
        }
        result = run_simulation(script, seed=0)
        assert result.report["converged"]
        assert result.report["clients"]["b"]["sentDiffs"] == 1
        assert _by_name(result)["c"]["count"] == 2

    def test_relay_state_is_sequential_application_of_applied_log(self):
        result = run_simulation(scenario("three-client-conflict"), seed=11)
        assert result.report["converged"]
        # rebuild the authoritative state by folding the applied diffs in order
        state = []
        seqs = []
        for seq, _sender, d in result.relay.applied_log("demo"):
            seqs.append(seq)
            state = apply_diff(state, d, remove_missing=False)
        assert seqs == list(range(1, len(seqs) + 1))
        assert result.relay.session_state("demo") == state


def _slot_script(seed):
    """Three clients on plots and counters that point their slots at local
    objects, at root entries and at nothing, and write through them."""
    rng = random.Random(f"slots/{seed}")
    edits = {cid: [] for cid in "abc"}
    objects = [("p1", "ex.Plot"), ("p2", "ex.Plot"), ("n1", "ex.Counter"), ("n2", "ex.Label")]
    for j, (name, cls) in enumerate(objects):
        edits["abc"[j % 3]].append({"atMs": 100 + j, "op": "request", "name": name, "class": cls})
    for k in range(60):
        cid = rng.choice("abc")
        plot = rng.choice(["p1", "p2"])
        at = 300 + 10 * k + rng.randrange(5)
        r = rng.random()
        if r < 0.3:
            edit = {"op": "local", "path": [plot, "source"], "class": rng.choice(["ex.Counter", "ex.Label"])}
        elif r < 0.55:
            edit = {"op": "global", "path": [plot, "source"], "name": rng.choice(["n1", "n2", "p1", "gone"])}
        elif r < 0.65:
            edit = {"op": "clear", "path": [plot, "source"]}
        elif r < 0.85:
            edit = {"op": "set", "path": [plot, "source", "count"], "value": k}
        else:
            edit = {"op": "set", "path": [rng.choice(["n1", plot]), "title" if plot == "p1" else "count"], "value": k}
        edits[cid].append({"atMs": at, **edit})
    return {
        "session": "demo",
        "durationMs": 1000,
        # No upstream loss: a lost request overtaken by the next diff of
        # the same object creates it at the relay from a partial state,
        # which converges with its mapping keys in another order.
        "net": {"latencyMs": [1, 15], "dropRelayToClientWindows": [[500, 560]]},
        "clients": [{"id": cid, "edits": edits[cid]} for cid in "abc"],
    }


class TestDynamicSlotsInSimulation:
    @pytest.mark.parametrize("seed", range(8))
    def test_local_global_and_clear_converge_to_the_relays_bytes(self, seed):
        result = run_simulation(_slot_script(seed), seed=seed)
        report = result.report
        assert report["converged"] and report["divergences"] == {}
        relay_hash = report["relay"]["stateHash"]
        assert {c["stateHash"] for c in report["clients"].values()} == {relay_hash}
        slots = [e["sessionState"]["source"] for e in result.relay.session_state("demo") if e["className"] == "ex.Plot"]
        assert slots and all(len(slot) <= 1 for slot in slots)


def _by_name(result):
    return {e["objectName"]: e["sessionState"] for e in result.relay.session_state("demo")}


def _settle(clients, done, server=None, budget_s=10.0):
    """Poll the server (when it runs in this process) and pump and flush
    every client until done() holds; False when the budget runs out."""
    end = time.monotonic() + budget_s
    while time.monotonic() < end:
        if server is not None:
            server.poll(0.001)
        now = int(time.monotonic() * 1000)
        for c in clients:
            c.pump(now)
            c.engine.flush(now)
        if done():
            return True
        if server is None:
            time.sleep(0.001)
    return False


def _closed_by_server(server, sock, budget_s=10.0):
    """Read and drop what sock receives until the server's end closes it."""
    sock.setblocking(False)
    end = time.monotonic() + budget_s
    while time.monotonic() < end:
        server.poll(0.001)
        try:
            if not sock.recv(1 << 16):
                return True
        except BlockingIOError:
            pass
        except ConnectionResetError:
            return True
    return False


def _frame(text):
    body = text.encode()
    return len(body).to_bytes(4, "big") + body


class TestSocketTransport:
    def test_two_clients_over_loopback(self):
        import time

        from linkstate.sync.socket_transport import RelayServer, SocketClient

        server = RelayServer()
        a = b = None
        try:
            a = SocketClient("a", "s", server.address)
            b = SocketClient("b", "s", server.address)
            a.engine.hello(0)
            b.engine.hello(0)

            def settle(ms_budget=3000):
                t0 = time.monotonic()
                while time.monotonic() - t0 < ms_budget / 1000:
                    now = int((time.monotonic() - t0) * 1000)
                    server.poll(0)
                    a.pump(now)
                    b.pump(now)
                    a.engine.flush(now)
                    b.engine.flush(now)
                    if a.engine.quiescent() and b.engine.quiescent():
                        return True
                    time.sleep(0.01)
                return False

            assert settle()
            a.engine.root.request_object("c1", "ex.Counter")
            a.engine.root.get_object("c1").count.set_state(41)
            assert settle()
            assert b.engine.root.get_object("c1").count.get_state() == 41
            relay_state = server.relay.session_state("s")
            assert state_equivalent(b.engine.root.get_session_state(), relay_state)
        finally:
            for sc in (a, b):
                if sc is not None:
                    sc.close()
            server.stop()

    def test_realtime_scenario_runner(self):
        from linkstate.sync.socket_transport import run_realtime

        script = {
            "session": "rt",
            "durationMs": 250,
            "flushIntervalMs": 20,
            "settleCapMs": 4000,
            "clients": [
                {
                    "id": "a",
                    "edits": [
                        {"atMs": 30, "op": "request", "name": "x", "class": "ex.Counter"},
                        {"atMs": 60, "op": "set", "path": ["x", "count"], "value": 5},
                    ],
                },
                {"id": "b", "edits": []},
            ],
        }
        report = run_realtime(script)
        assert report["mode"] == "realtime"
        assert report["converged"] is True
        assert report["clients"]["a"]["sentDiffs"] >= 1

    def test_a_non_finite_number_does_not_poison_the_session(self):
        server = RelayServer()
        raw = socket.create_connection(server.address)
        late = None
        try:
            raw.sendall(
                _frame(
                    '{"kind":"Diff","sessionId":"s","senderId":"x","serverSeq":0,"payload":'
                    '[{"objectName":"c","className":"ex.Counter","sessionState":{"count":NaN}}]}'
                )
            )
            assert _closed_by_server(server, raw)
            late = SocketClient("late", "s", server.address)
            assert _settle([late], lambda: late.engine.joined, server)
            assert late.engine.root.get_names() == []
        finally:
            raw.close()
            if late is not None:
                late.close()
            server.stop()

    def test_bad_peers_are_closed_alone_and_the_loop_keeps_serving(self, monkeypatch):
        monkeypatch.setattr(socket_transport, "MAX_UNSENT_BYTES", 64 * 1024)
        server = RelayServer()
        peers = []
        good = []
        try:
            huge = socket.create_connection(server.address)
            peers.append(huge)
            huge.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            assert _closed_by_server(server, huge)

            cut = socket.create_connection(server.address)
            peers.append(cut)
            cut.sendall(_frame('{"kind":"Hello","sessionId":"s","senderId":"cut"}')[:20])
            cut.close()

            idle = socket.socket()
            peers.append(idle)
            idle.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            idle.connect(server.address)
            idle.sendall(_frame('{"kind":"Hello","sessionId":"s","senderId":"idle"}'))

            good = [SocketClient(cid, "s", server.address) for cid in ("a", "b")]
            a, b = good
            assert _settle(good, lambda: a.engine.joined and b.engine.joined, server)
            a.engine.root.request_object("t", "ex.Label")
            # 32 KiB per edit, bounded: the idle peer's kernel buffers fill
            # first, then its unsent bytes pass the cap
            for i in range(400):
                if "idle" not in server._routes:
                    break
                a.engine.root.get_object("t").text.set_state(f"{i:05d}" + "x" * 32768)
                assert _settle(good, lambda: a.engine.quiescent() and b.engine.quiescent(), server)
            assert "idle" not in server._routes
            assert _closed_by_server(server, idle)

            b.engine.root.get_object("t").size.set_state(30)
            assert _settle(good, lambda: a.engine.quiescent() and b.engine.quiescent(), server)
            assert a.engine.root.get_object("t").size.get_state() == 30
            relay_state = server.relay.session_state("s")
            for c in good:
                assert state_equivalent(c.engine.root.get_session_state(), relay_state)
        finally:
            for sock in peers + good:
                sock.close()
            server.stop()

    def test_a_second_connection_cannot_take_over_a_clients_fan_out(self):
        server = RelayServer()
        rogue = socket.create_connection(server.address)
        clients = []
        try:
            clients = [SocketClient(cid, "s", server.address) for cid in ("a", "b")]
            a, b = clients
            assert _settle(clients, lambda: a.engine.quiescent() and b.engine.quiescent(), server)
            owner = server._routes["a"]
            rogue.sendall(_frame('{"kind":"Hello","sessionId":"s","senderId":"a"}'))
            assert _closed_by_server(server, rogue)
            assert server._routes["a"] is owner
            b.engine.root.request_object("n", "ex.Counter")
            assert _settle(clients, lambda: a.engine.root.get_names() == ["n"] and a.engine.quiescent(), server)
            assert state_equivalent(a.engine.root.get_session_state(), server.relay.session_state("s"))
        finally:
            rogue.close()
            for c in clients:
                c.close()
            server.stop()

    def test_frames_larger_than_the_cap_reach_peers_that_read(self, monkeypatch):
        monkeypatch.setattr(socket_transport, "MAX_UNSENT_BYTES", 64 * 1024)
        server = RelayServer()
        clients = []
        try:
            clients = [SocketClient(cid, "s", server.address) for cid in ("a", "b")]
            a, b = clients
            assert _settle(clients, lambda: a.engine.joined and b.engine.joined, server)
            # a 4 MiB Diff, far more than one nonblocking send() takes
            a.engine.root.request_object("t", "ex.Label")
            a.engine.root.get_object("t").text.set_state("x" * (4 << 20))
            assert _settle(clients, lambda: a.engine.quiescent() and b.engine.quiescent(), server)
            assert len(b.engine.root.get_object("t").text.get_state()) == 4 << 20
            # and a Welcome of the same size to a late joiner
            late = SocketClient("late", "s", server.address)
            clients.append(late)
            assert _settle(clients, lambda: all(c.engine.quiescent() for c in clients), server)
            assert sorted(server._routes) == ["a", "b", "late"]
            relay_state = server.relay.session_state("s")
            for c in clients:
                assert state_equivalent(c.engine.root.get_session_state(), relay_state)
        finally:
            for c in clients:
                c.close()
            server.stop()

    def test_unframeable_relay_stream_ends_like_a_close(self):
        relay = socket.create_server(("127.0.0.1", 0))
        client = SocketClient("a", "s", relay.getsockname())
        conn, _ = relay.accept()
        try:
            conn.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            end = time.monotonic() + 10
            while client._conn.sock.fileno() != -1 and time.monotonic() < end:
                assert client.pump(0) == 0
            assert client._conn.sock.fileno() == -1
            assert client.pump(1) == 0
            client.engine.flush(2)  # the Hello is dropped, not raised
        finally:
            client.close()
            conn.close()
            relay.close()

    def test_the_relay_handles_the_frames_before_a_bad_one_in_the_same_read(self):
        server = RelayServer()
        raw = socket.create_connection(server.address)
        clients = []
        try:
            clients = [SocketClient("b", "s", server.address)]
            (b,) = clients
            assert _settle(clients, lambda: b.engine.joined, server)
            created = [{"objectName": "n", "className": "ex.Counter", "sessionState": {"count": 4}}]
            raw.sendall(
                encode_frame(Message("Hello", "s", "a"))
                + encode_frame(Message("Diff", "s", "a", 0, created))
                + _frame("{not json")
            )
            assert _closed_by_server(server, raw)
            assert _settle(clients, lambda: b.engine.root.get_names() == ["n"], server)
            assert b.engine.root.get_object("n").count.get_state() == 4
            assert "a" not in server._routes
        finally:
            raw.close()
            for c in clients:
                c.close()
            server.stop()

    def test_a_client_handles_the_frames_before_a_bad_one_in_the_same_read(self):
        relay = socket.create_server(("127.0.0.1", 0))
        client = SocketClient("a", "s", relay.getsockname())
        conn, _ = relay.accept()
        try:
            state = [{"objectName": "n", "className": "ex.Counter", "sessionState": {"count": 2}}]
            conn.sendall(encode_frame(Message("Welcome", "s", "server", 5, state)) + _frame("{not json"))
            end = time.monotonic() + 10
            handled = 0
            while client._conn.sock.fileno() != -1 and time.monotonic() < end:
                handled += client.pump(0)
            assert client._conn.sock.fileno() == -1
            assert handled == 1
            assert client.engine.joined and client.engine.last_server_seq == 5
            assert client.engine.root.get_object("n").count.get_state() == 2
        finally:
            client.close()
            conn.close()
            relay.close()

    def test_a_diff_that_does_not_apply_leaves_the_pumped_client_serving(self, caplog):
        relay = socket.create_server(("127.0.0.1", 0))
        client = SocketClient("a", "s", relay.getsockname())
        conn, _ = relay.accept()
        try:
            state = [{"objectName": "c", "className": "ex.Counter", "sessionState": {"count": 2}}]
            n = {"objectName": "n", "className": "ex.Counter", "sessionState": {"count": 1}}
            conn.sendall(
                encode_frame(Message("Welcome", "s", "server", 0, state))
                + encode_frame(Message("Diff", "s", "b", 1, [{"objectName": "c"}, n, n]))
                + encode_frame(Message("Diff", "s", "b", 2, [state[0] | {"sessionState": {"count": 5}}]))
            )
            end = time.monotonic() + 10
            handled = 0
            with caplog.at_level(logging.WARNING):
                while handled < 3 and time.monotonic() < end:
                    handled += client.pump(0)
            assert handled == 3 and client._conn.sock.fileno() != -1
            assert "does not apply" in caplog.text
            assert client.engine.last_server_seq == 2
            assert client.engine.root.get_names() == ["c"]
            assert client.engine.root.get_object("c").count.get_state() == 5
        finally:
            client.close()
            conn.close()
            relay.close()

    def test_thirty_two_clients_share_the_one_thread(self):
        threads = threading.active_count()
        server = RelayServer()
        clients = []
        try:
            clients = [SocketClient(f"c{i:02d}", "s", server.address) for i in range(32)]
            assert _settle(clients, lambda: all(c.engine.joined for c in clients), server)
            assert threading.active_count() == threads
            writer = clients[0].engine.root
            writer.request_object("n", "ex.Counter")
            writer.get_object("n").count.set_state(7)
            assert _settle(clients, lambda: all(c.engine.quiescent() for c in clients), server)
            assert [c.engine.root.get_object("n").count.get_state() for c in clients] == [7] * 32
        finally:
            for c in clients:
                c.close()
            server.stop()

    def test_fan_out_encodes_each_body_once(self, monkeypatch):
        server = RelayServer()
        clients = []
        try:
            clients = [SocketClient(f"c{i:02d}", "s", server.address) for i in range(32)]
            assert _settle(clients, lambda: all(c.engine.joined for c in clients), server)
            writer = clients[0].engine
            writer.root.request_object("n", "ex.Counter")
            writer.flush(int(time.monotonic() * 1000))  # the client's own encode comes first
            encoded = []
            real = wire.encode_frame

            def counted(msg, *payload_text):
                encoded.append(msg.kind)
                return real(msg, *payload_text)

            monkeypatch.setattr(wire, "encode_frame", counted)
            monkeypatch.setattr(socket_transport, "encode_frame", counted)
            end = time.monotonic() + 10
            while server.relay.session_seq("s") == 0 and time.monotonic() < end:
                server.poll(0.001)
            # one Ack for the writer and one Diff shared by the 31 others
            assert sorted(encoded) == ["Ack", "Diff"]
            monkeypatch.undo()
            assert _settle(clients, lambda: all(c.engine.quiescent() for c in clients), server)
            assert all(c.engine.root.get_names() == ["n"] for c in clients)
        finally:
            for c in clients:
                c.close()
            server.stop()

    def test_serve_forever_returns_once_stopped(self, monkeypatch):
        server = RelayServer()
        raw = socket.create_connection(server.address)
        try:
            real_poll = server.poll

            def poll_then_stop(timeout):
                real_poll(timeout)
                server.stop()

            monkeypatch.setattr(server, "poll", poll_then_stop)
            server.serve_forever()  # the connection wakes the first poll
            raw.settimeout(10)
            assert raw.recv(1) == b""  # accepted, then closed by stop()
        finally:
            raw.close()

    def test_a_peer_gone_before_its_welcome_is_closed_and_its_later_frames_are_dropped(self):
        server = RelayServer()
        raw = socket.create_connection(server.address)
        late = None
        try:
            created = [{"objectName": "n", "className": "ex.Counter", "sessionState": {"count": 4}}]
            raw.sendall(encode_frame(Message("Hello", "s", "x")) + encode_frame(Message("Diff", "s", "x", 0, created)))
            # close with a reset: the server reads both frames, and sending the Welcome fails
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            raw.close()
            end = time.monotonic() + 10
            while "s" not in server.relay.session_ids() and time.monotonic() < end:
                server.poll(0.001)
            assert "x" not in server._routes
            late = SocketClient("late", "s", server.address)
            assert _settle([late], lambda: late.engine.joined, server)
            assert late.engine.root.get_names() == [] and server.relay.session_seq("s") == 0
        finally:
            raw.close()
            if late is not None:
                late.close()
            server.stop()

    def test_serve_reports_its_address_and_admits_a_client(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "linkstate.cli", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
            text=True,
        )
        try:
            line = proc.stderr.readline()
            assert line.startswith("relay listening on "), line
            host, port = line.split()[-1].rsplit(":", 1)
            client = SocketClient("a", "s", (host, int(port)))
            try:
                assert _settle([client], lambda: client.engine.joined)
            finally:
                client.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stderr.close()
