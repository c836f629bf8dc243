"""Payloads read and written against the text of a mention list.

A frame decoded against its receiver's base (the reference of
wire.decode_frame) must give what the whole parse gives: the same message,
or the same MalformedMessage text. An in-place diff spliced from its
mention list's text (encode_diff) must be what the encoder writes, and so
must a formatted envelope (encode_frame). Both transports read against the
receiver's base, and a one-change diff hands the JSON codec as much text at
N=500 as at N=5000, and each of its receivers parses its changed item once.
"""

import json
import random
import re
import time
from enum import IntEnum

import pytest

from linkstate import statetree
from linkstate.demo import build_demo_registry
from linkstate.errors import MalformedMessage
from linkstate.statetree import _diff_for_wire, _EntryList, _in_place_copy, _InPlaceDiff, encode_diff
from linkstate.sync import ClientEngine, Message, Relay, run_simulation, sim, wire
from linkstate.sync.socket_transport import RelayServer, SocketClient
from linkstate.sync.wire import decode_frame, encode_frame

from test_inplace import _lossy_script


def _frame(body):
    body = body.encode("utf-8", "surrogatepass") if isinstance(body, str) else bytes(body)
    return len(body).to_bytes(4, "big") + body


def _outcome(frame, reference):
    try:
        msg = decode_frame(frame, reference)
    except MalformedMessage as e:
        return "refused", str(e)
    return msg.kind, msg.session_id, msg.sender_id, msg.server_seq, json.dumps(msg.payload)


def _same_with_and_without(frame, base):
    with_base = _outcome(frame, lambda sid: base)
    assert with_base == _outcome(frame, None), frame[:200]
    return with_base


_LEAVES = {"ex.Counter": (["count"],), "ex.Label": (["text"], ["size"]), "ex.Plot": (["title"], ["label", "text"])}


def _sets_script(seed):
    """Three clients create 40 objects, then make 150 one-field sets over
    5% upstream loss and one 100 ms downstream blackout."""
    rng = random.Random(f"sets/{seed}")
    ids = ["c0", "c1", "c2"]
    objects = [(f"o{j:02d}", rng.choice(sorted(_LEAVES))) for j in range(40)]
    edits = {cid: [] for cid in ids}
    for j, (name, cls) in enumerate(objects):
        edits[ids[j % 3]].append({"atMs": 200 + j, "op": "request", "name": name, "class": cls})
    for k in range(150):
        name, cls = rng.choice(objects)
        leaf = rng.choice(_LEAVES[cls])
        value = k if leaf[-1] in ("count", "size") else f'set {k} "ü\\'
        edits[rng.choice(ids)].append({"atMs": 800 + 5 * k, "op": "set", "path": [name, *leaf], "value": value})
    return {
        "session": "sets",
        "durationMs": 1600,
        "flushIntervalMs": 10,
        "net": {"latencyMs": [1, 15], "dropClientToRelay": 0.05, "dropRelayToClientWindows": [[1100, 1200]]},
        "clients": [{"id": cid, "edits": edits[cid]} for cid in ids],
    }


@pytest.fixture(scope="module")
def received():
    """(frame, base) for every frame the simulator delivered, base being what
    its receiver read it against, over generated lossy scripts."""
    got = []
    real = sim.decode_frame

    def decode(frame, reference=None):
        msg = real(frame, reference)
        got.append((frame, reference(msg.session_id)))
        return msg

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "decode_frame", decode)
        for script, seed in [(_sets_script(1), 1), (_sets_script(2), 2), (_lossy_script(0), 0), (_lossy_script(3), 3)]:
            assert run_simulation(script, seed=seed).report["converged"]
    return got


def test_real_frames_read_against_their_base_decode_as_the_whole_parse(received, monkeypatch):
    answers = []
    real = wire._read_in_place
    monkeypatch.setattr(wire, "_read_in_place", lambda *a: answers.append(real(*a)) or answers[-1])
    for frame, base in received:
        _same_with_and_without(frame, base)
    read = [a for a in answers if a is not None]
    assert len(received) > 1500 and len(read) > 0.7 * len(answers)


# -- seeded mutations ----------------------------------------------------------------


def _split(frame):
    text = frame[4:].decode("utf-8")
    i = text.index(',"payload":')
    return text[:i], text[i + len(',"payload":') : -1]


def _item_text(x):
    return json.dumps(x, ensure_ascii=False, separators=(",", ":"))


def _structural(rng, base):
    """Payloads over base's names that are no in-place diff of it, or only
    nearly one."""
    m = [{"objectName": e["objectName"]} for e in base]
    k = rng.randrange(len(m))
    n = m[k]["objectName"]
    other = m[rng.randrange(len(m))]
    swapped = list(m)
    j = rng.randrange(len(m))
    swapped[k], swapped[j] = swapped[j], swapped[k]
    changed = {"objectName": n, "className": "ex.Counter", "sessionState": {"count": 7}}
    return [
        m + [{"objectName": "fresh", "className": "ex.Counter", "sessionState": {"count": 1}}],  # create
        m[:k] + [{"objectName": n, "__removed__": True}] + m[k + 1 :],  # remove
        m[:k] + [{"objectName": n, "__removed__": True}, {"objectName": n, "className": "", "sessionState": None}]
        + m[k + 1 :],  # demote
        swapped,  # reorder
        swapped + [{"__order__": [x["objectName"] for x in swapped]}],  # reorder with its marker
        m[:k] + [{"objectName": n, "className": "ex.Label", "sessionState": {"text": "t"}}] + m[k + 1 :],  # recreate
        m[:k] + [other] + m[k + 1 :],  # another entry's mention in this place
        m[:k] + [changed, changed] + m[k + 2 :],  # one entry's item twice
        m[:k] + [{"objectName": n, "className": 3}] + m[k + 1 :],  # no entry item
        m[:k] + [[changed]] + m[k + 1 :],  # no item at all
        m[:-1],  # one item short
        m + [m[-1]],  # one item over
    ]


def _mutations(rng, frame, base):
    body = frame[4:]
    text = body.decode("utf-8")
    head, payload = _split(frame)
    env = json.loads(head + "}")
    for _ in range(3):
        flipped = bytearray(body)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        yield flipped
        yield body[: rng.randrange(len(body))]
        at = rng.randrange(len(text) + 1)
        yield text[:at] + rng.choice([" ", "\n", "\t", "\r"]) + text[at:]
    keys = [*env, "payload"]
    rng.shuffle(keys)
    fields = {k: json.dumps(v, ensure_ascii=False) for k, v in env.items()}
    yield "{" + ",".join(f'"{k}":{payload if k == "payload" else fields[k]}' for k in keys) + "}"
    yield "{" + ",".join(f'"{k}":{payload if k == "payload" else fields[k]}' for k in [*env, "payload"]) + "}"
    yield f'{head},"payload":{{}},"payload":{payload}}}'
    yield f'{head},"payload":{payload},"payload":[]}}'
    yield f'{head},"kind":"Hello","payload":{payload}}}'
    yield f'{{"sessionId":"elsewhere",{head[1:]},"payload":{payload}}}'
    yield f'{head} ,"payload":{payload}}}'
    yield f'{head},"payload": {payload}}}'
    yield f'{head},"payload":{payload} }}'
    yield f' {head},"payload":{payload}}}\n'
    yield f'{head},"payload":{payload}}}}}'
    yield f'{head},"payload":{payload}'
    yield f'{{,"payload":{payload}}}'
    numbers = [mt.span() for mt in re.finditer(r"\d+", payload)]
    for literal in ("NaN", "Infinity", "-Infinity", "1e999", "1.5", "-0"):
        if numbers:
            a, b = rng.choice(numbers)
            yield f'{head},"payload":{payload[:a]}{literal}{payload[b:]}}}'
    deep = "[" * 100_000 + "]" * 100_000
    yield f'{head},"payload":{payload[:-1]},{deep}]}}'
    state = payload.find('"sessionState":')
    if state >= 0:
        at = state + len('"sessionState":')
        yield f'{head},"payload":{payload[:at]}{{"deep":{deep}}},"x":{payload[at:]}}}'
    if base:
        for items in _structural(rng, base):
            yield f'{head},"payload":[{",".join(map(_item_text, items))}]}}'
        name = base[0]["objectName"]
        spelled = json.dumps(name)  # ASCII escapes: the same name, other text
        yield f'{head},"payload":[{{"objectName":{spelled}}}{payload[payload.find(",") if len(base) > 1 else -1 :]}}}'
        yield f'{head},"payload":[{{"objectName" : "{name}"}}{payload[payload.find(",") if len(base) > 1 else -1 :]}}}'


def test_mutated_frames_decode_as_the_whole_parse(received):
    rng = random.Random(22)
    bases = [base for _, base in received if type(base) is _EntryList and base]
    sample = rng.sample(received, 100)
    outcomes = set()
    for frame, base in sample:
        for body in _mutations(rng, frame, base):
            outcomes.add(_same_with_and_without(_frame(body), base)[0])
            # any other built list is a reference too: it only costs time
            _same_with_and_without(_frame(body), rng.choice(bases))
    assert {"refused", "Diff", "Ack"} <= outcomes


# -- names that need escaping ----------------------------------------------------------

_NAMES = ['a"b', "c\\d", "e\x01f\x1f", "tab\tnl\n", "ü€😀", "</script>", "  ", "\x7f", "x\udfff", "\ud800"]


def _built(rng, n, names=_NAMES):
    """A built entry list of n counters, some with names that need escaping."""
    picked = rng.sample(names, min(len(names), n // 3))
    picked += [f"n{i}" for i in range(n - len(picked))]
    rng.shuffle(picked)
    return _EntryList({"objectName": x, "className": "ex.Counter", "sessionState": {"count": 0}} for x in picked)


def _edited(rng, base, changes):
    """A copy of base with `changes` entries replaced under their names:
    new state, another class, or a demotion to a reference."""
    new = _in_place_copy(base)
    for i in rng.sample(range(len(base)), min(changes, len(base))):
        e = base[i]
        r = rng.random()
        if r < 0.7:
            new[i] = {**e, "sessionState": {"count": rng.randrange(1, 99)}}
        elif r < 0.85:
            new[i] = {**e, "className": "ex.Label", "sessionState": {"text": e["objectName"] * 2}}
        else:
            new[i] = {**e, "className": "", "sessionState": None}
    return new


def test_a_spliced_in_place_diff_is_what_the_encoder_writes():
    rng = random.Random(5)
    spliced = 0
    for _ in range(400):
        n = rng.choice([1, 2, 3, 8, 30, 200])
        base = _built(rng, n)
        d = _diff_for_wire(base, _edited(rng, base, rng.choice([0, 1, 1, 2, 3, n // 3, n])))
        if d == {}:
            continue
        assert type(d) is _InPlaceDiff and d.mentions is statetree._mentions(base)
        assert encode_diff(d) == statetree._ENCODER.encode(list(d))
        spliced += len(d) == n and 4 * sum(x is not y for x, y in zip(d, d.mentions)) <= n
    assert spliced > 60


def test_frames_with_escaped_names_are_read_in_place():
    rng = random.Random(9)
    names = [x for x in _NAMES if not re.search("[\ud800-\udfff]", x)]  # lone surrogates cannot be UTF-8
    read = 0
    for _ in range(300):
        n = rng.choice([3, 8, 30, 200])
        base = _built(rng, n, names)
        d = _diff_for_wire(base, _edited(rng, base, rng.choice([1, 1, 2, 3])))
        if d == {}:
            continue
        frame = encode_frame(Message("Diff", "s", "a", 0, d))
        kind = _same_with_and_without(frame, base)[0]
        got = decode_frame(frame, lambda sid: base).payload
        read += type(got) is _InPlaceDiff
        for body in _mutations(rng, frame, base) if rng.random() < 0.1 else ():
            assert _same_with_and_without(_frame(body), base)[0] in ("refused", kind, "Hello")
    assert read > 150


# -- envelopes -------------------------------------------------------------------------


class _Seq(IntEnum):
    ONE = 1


class _Name(str):
    def __format__(self, spec):
        return "formatted"


@pytest.mark.parametrize(
    "session_id, sender_id, server_seq",
    [
        ("s", "a", 0),
        ('q"\\\x00\x1f', "ü€😀 ", 2**70),
        ("s", "a", -3),
        (_Name("s"), _Name("a"), 1),
        ("s", "a", True),
        ("s", "a", _Seq.ONE),
        ("s", "a", 1.0),
        (3, None, 4),
        ("s", None, 4),
    ],
)
def test_an_envelope_is_what_the_encoder_writes(session_id, sender_id, server_seq):
    # encode_frame writes what decode_body reads back, and refuses what it refuses
    payload = [{"objectName": "x"}]
    for kind in sorted(wire.KINDS):
        msg = Message(kind, session_id, sender_id, server_seq, payload)
        fields = {"kind": kind, "sessionId": session_id, "senderId": sender_id, "serverSeq": server_seq}
        body = statetree._ENCODER.encode({**fields, "payload": payload}).encode("utf-8")
        try:
            decoded = wire.decode_body(body)
        except MalformedMessage as e:
            with pytest.raises(MalformedMessage, match=re.escape(str(e))):
                encode_frame(msg)
            continue
        assert encode_frame(msg) == len(body).to_bytes(4, "big") + body
        assert decoded == msg


# -- both transports read against the receiver's base --------------------------------------


def test_the_loopback_relay_and_clients_read_an_edit_against_their_base():
    server = RelayServer()
    a = b = None
    try:
        a = SocketClient("a", "s", server.address)
        b = SocketClient("b", "s", server.address)
        payloads = []
        on_message = b.engine.on_message
        b.engine.on_message = lambda msg, now: payloads.append(msg.payload) or on_message(msg, now)

        def settle():
            t0 = time.monotonic()
            while time.monotonic() - t0 < 3:
                now = int((time.monotonic() - t0) * 1000)
                server.poll(0)
                for sc in (a, b):
                    sc.pump(now)
                    sc.engine.flush(now)
                if a.engine.quiescent() and b.engine.quiescent():
                    return True
                time.sleep(0.005)
            return False

        assert settle()
        for i in range(8):
            a.engine.root.request_object(f"c{i}", "ex.Counter")
        assert settle()
        a.engine.root.get_object("c3").count.set_state(5)
        assert settle()
        assert b.engine.root.get_object("c3").count.get_state() == 5
        assert type(server.relay.applied_log("s")[-1][2]) is _InPlaceDiff
        assert type(payloads[-1]) is _InPlaceDiff
    finally:
        for sc in (a, b):
            if sc is not None:
                sc.close()
        server.stop()


# -- the codec's work follows the change, not N ---------------------------------------------


class _Counted:
    """A stand-in for statetree's decoder or encoder that counts the text
    it parses or writes."""

    def __init__(self, real):
        self.real = real
        self.chars = 0

    def decode(self, s):
        self.chars += len(s)
        return self.real.decode(s)

    def scan_once(self, s, i):
        x, end = self.real.scan_once(s, i)
        self.chars += end - i
        return x, end

    def encode(self, o):
        out = self.real.encode(o)
        self.chars += len(out)
        return out


def _one_change_codec_text(monkeypatch, n):
    """The text each stage of one in-place edit hands the JSON codec, over
    a session of n counters: the flush's encode, the relay's read, the
    fan-out's encode, the other client's read."""
    relay = Relay()
    counters = [{"objectName": f"c{i:04d}", "className": "ex.Counter", "sessionState": {"count": 0}} for i in range(n)]
    relay.handle(Message("Hello", "s", "seed"))
    relay.handle(Message("Diff", "s", "seed", 0, counters))
    sent = []
    a = ClientEngine("a", "s", build_demo_registry(), sent.append)
    b = ClientEngine("b", "s", build_demo_registry(), lambda msg: None)
    for engine in (a, b):
        for _, msg in relay.handle(Message("Hello", "s", engine.client_id)):
            engine.on_message(msg, 0)
        engine.flush(0)
    decoder = _Counted(statetree._DECODER)
    encoder = _Counted(statetree._ENCODER)
    monkeypatch.setattr(statetree, "_DECODER", decoder)
    monkeypatch.setattr(statetree, "_ENCODER", encoder)
    text = {}

    def stage(name, counted, fn):
        before = counted.chars
        out = fn()
        text[name] = counted.chars - before
        return out

    a.root.get_object("c0321").count.set_state(9)
    frame = stage("flush encode", encoder, lambda: a.flush(1) or encode_frame(sent[-1]))
    msg = stage("relay read", decoder, lambda: decode_frame(frame, relay.read_base))
    frames = stage("fan-out encode", encoder, lambda: list(wire.encode_fanout(relay.handle(msg))))
    fanout = next(f for target, _, f in frames if target == "b")
    inbound = stage("client read", decoder, lambda: decode_frame(fanout, b.read_base))
    b.on_message(inbound, 2)
    assert b.root.get_object("c0321").count.get_state() == 9
    assert type(msg.payload) is _InPlaceDiff and type(inbound.payload) is _InPlaceDiff
    return text


def test_a_one_change_diff_hands_the_codec_text_that_does_not_grow_with_n(monkeypatch):
    small = _one_change_codec_text(monkeypatch, 500)
    monkeypatch.undo()
    large = _one_change_codec_text(monkeypatch, 5000)
    assert large == small
    assert all(0 < chars < 200 for chars in large.values()), large


# -- each changed item is parsed once, from the frame to the apply --------------------------


def _one_change_entry_items(monkeypatch, n):
    """The _entry_item calls each receiver makes for a one-change frame it
    decodes against its reference and applies, over a session of n
    counters: the relay, a client, a client with an unpublished edit in
    place and one with an unpublished creation."""
    relay = Relay()
    counters = [{"objectName": f"c{i:04d}", "className": "ex.Counter", "sessionState": {"count": 0}} for i in range(n)]
    relay.handle(Message("Hello", "s", "seed"))
    relay.handle(Message("Diff", "s", "seed", 0, counters))
    sent = []
    engines = {cid: ClientEngine(cid, "s", build_demo_registry(), sent.append if cid == "a" else lambda msg: None)
               for cid in ("a", "client", "edited", "created")}
    for engine in engines.values():
        for _, msg in relay.handle(Message("Hello", "s", engine.client_id)):
            engine.on_message(msg, 0)
        engine.flush(0)
    engines["edited"].root.get_object("c0007").count.set_state(3)
    engines["created"].root.request_object("new", "ex.Counter")
    engines["a"].root.get_object("c0321").count.set_state(9)
    engines["a"].flush(1)
    frame = encode_frame(sent[-1])
    items = []
    real = statetree._entry_item
    monkeypatch.setattr(statetree, "_entry_item", lambda x: items.append(x) or real(x))
    calls = {}
    before = len(items)
    outbound = relay.handle(decode_frame(frame, relay.read_base))
    calls["relay"] = len(items) - before
    frames = {target: f for target, _, f in wire.encode_fanout(outbound)}
    for cid in ("client", "edited", "created"):
        engine = engines[cid]
        before = len(items)
        engine.on_message(decode_frame(frames[cid], engine.read_base), 2)
        calls[cid] = len(items) - before
        assert engine.root.get_object("c0321").count.get_state() == 9
    assert engines["edited"].root.get_object("c0007").count.get_state() == 3
    assert engines["created"].root.get_names()[-1] == "new"
    return calls


def test_a_one_change_frame_parses_its_changed_item_once_per_receiver(monkeypatch):
    for n in (500, 5000):
        assert _one_change_entry_items(monkeypatch, n) == {"relay": 1, "client": 1, "edited": 1, "created": 1}, n
        monkeypatch.undo()
