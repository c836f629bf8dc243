"""Sync wire format: length-prefixed UTF-8 JSON messages.

Each frame is a 4-byte big-endian payload length followed by one JSON object
with the fields `kind`, `sessionId`, `senderId`, `serverSeq`, `payload`.
Documented in docs/protocol.md.

A receiver may hand the decoder a reference: given a message's sessionId,
the built entry list it will apply the payload to (the relay's session
state, a client's published shadow). A body written as the encoder writes
it, `...,"payload":[...]}`, then has its envelope parsed apart from its
payload, and a payload written as the text of the list's mention list
with a few items replaced (an in-place entry diff over that list) is read
against that text (statetree._read_in_place): only the replaced items are
parsed, and its other items are the mention list's own dicts. Anything
else is parsed whole, so the value, and any error, is the same with or
without a reference.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Any, Callable, Iterator

from ..errors import MalformedMessage
from ..statetree import _read_in_place, encode_diff, parse_json

KINDS = frozenset({"Hello", "Welcome", "Diff", "FullState", "Ack"})

MAX_FRAME_BYTES = 64 * 1024 * 1024  # refuse absurd length prefixes

_LENGTH = struct.Struct(">I")

_PAYLOAD_KEY = ',"payload":'
_ENVELOPE_HEAD = {kind: '{"kind":"' + kind + '","sessionId":' for kind in KINDS}

Reference = Callable[[str], Any]
"""Given a sessionId, the built entry list a payload for it is read against."""


@dataclass(frozen=True)
class Message:
    kind: str
    session_id: str
    sender_id: str
    server_seq: int = 0
    payload: Any = None


def _check_envelope(kind: Any, session_id: Any, sender_id: Any, server_seq: Any) -> None:
    """The envelope rule, for the encoder and the decoder alike: a known
    kind, string ids and a non-negative integer serverSeq that is no bool.
    Raises MalformedMessage at the first field that breaks it."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise MalformedMessage(f"unknown message kind {kind!r}")
    if not isinstance(session_id, str) or not isinstance(sender_id, str):
        raise MalformedMessage("sessionId and senderId must be strings")
    if not isinstance(server_seq, int) or isinstance(server_seq, bool) or server_seq < 0:
        raise MalformedMessage("serverSeq must be a non-negative integer")


def encode_frame(msg: Message, payload_text: str | None = None) -> bytes:
    """The frame of msg; MalformedMessage if its envelope breaks the rule
    decode_body reads it by (_check_envelope). payload_text, when given, is
    encode_diff(msg.payload) already made; the frame's bytes are the same
    either way."""
    _check_envelope(msg.kind, msg.session_id, msg.sender_id, msg.server_seq)
    if payload_text is None:
        payload_text = encode_diff(msg.payload)
    # The fields as the encoder writes them: encode_basestring and
    # int.__repr__ write a str or int subclass as its value.
    sid, sender = encode_basestring(msg.session_id), encode_basestring(msg.sender_id)
    head = f'{_ENVELOPE_HEAD[msg.kind]}{sid},"senderId":{sender},"serverSeq":{int.__repr__(msg.server_seq)}'
    body = (head + _PAYLOAD_KEY + payload_text + "}").encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def encode_fanout(outbound: list[tuple[str, Message]]) -> Iterator[tuple[str, Message, bytes]]:
    """The relay's outbound (target, message) list with each message's
    frame. The relay hands every other member one shared Diff message and
    the sender an Ack with the same payload, so each distinct payload is
    encoded once and each distinct message gets one envelope around it."""
    texts: dict[int, str] = {}
    frames: dict[int, bytes] = {}
    for target, msg in outbound:
        frame = frames.get(id(msg))
        if frame is None:
            text = texts.get(id(msg.payload)) or texts.setdefault(id(msg.payload), encode_diff(msg.payload))
            frame = frames[id(msg)] = encode_frame(msg, text)
        yield target, msg, frame


def _read_against(text: str, reference: Reference) -> dict | None:
    """The body's object, its envelope parsed apart from its payload and the
    payload read against reference's entry list; None if the body is not
    split that way or the payload is not that list's mention text with a
    few items replaced."""
    i = text.find(_PAYLOAD_KEY)
    j = i + len(_PAYLOAD_KEY)
    # An in-place diff starts with its first item; a payload that does not
    # (null, {}, an empty state) is left to the whole parse unread.
    if i < 0 or not text.startswith("[{", j) or not text.endswith("}"):
        return None
    try:
        data = parse_json(text[:i] + "}")
    except (ValueError, RecursionError):
        return None
    # The parse is an object, the only JSON value that ends in "}". With no
    # member before it, the payload key could not follow a ",". A payload
    # key in the envelope as well loses to this one, as in the whole parse.
    if not data or not isinstance(data.get("sessionId"), str):
        return None
    payload = _read_in_place(text, j, len(text) - 1, reference(data["sessionId"]))
    if payload is None:
        return None
    data["payload"] = payload
    return data


def decode_body(body: bytes, reference: Reference | None = None) -> Message:
    """The message in one frame body. With a reference, an in-place entry
    diff is read against it (see the module docstring); the message is the
    same."""
    try:
        text = body.decode("utf-8")
        data = _read_against(text, reference) if reference is not None else None
        if data is None:
            data = parse_json(text)
    except (ValueError, RecursionError) as e:
        # ValueError: bad UTF-8, bad JSON, a non-finite number or an integer
        # too long to convert; RecursionError: nested deeper than the
        # decoder can follow
        raise MalformedMessage(f"undecodable frame body: {e}") from e
    if not isinstance(data, dict):
        raise MalformedMessage("frame body must be a JSON object")
    envelope = data.get("kind"), data.get("sessionId"), data.get("senderId"), data.get("serverSeq", 0)
    _check_envelope(*envelope)
    return Message(*envelope, data.get("payload"))


def decode_frame(frame: bytes, reference: Reference | None = None) -> Message:
    """Decode one complete frame (prefix plus body), reading its payload
    against reference if one is given (decode_body)."""
    if len(frame) < _LENGTH.size:
        raise MalformedMessage("frame shorter than its length prefix")
    (length,) = _LENGTH.unpack_from(frame)
    if length > MAX_FRAME_BYTES:
        raise MalformedMessage(f"frame length {length} exceeds limit")
    body = frame[_LENGTH.size :]
    if len(body) != length:
        raise MalformedMessage(f"frame body is {len(body)} bytes, prefix says {length}")
    return decode_body(body, reference)


class Framer:
    """Reassembles messages from an arbitrary-chunked byte stream."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes, reference: Reference | None = None) -> Iterator[Message]:
        """The messages completed by data, each decoded as the iterator
        reaches it, so a reference answers with the state the messages
        before it left."""
        self._buf.extend(data)
        while True:
            if len(self._buf) < _LENGTH.size:
                return
            (length,) = _LENGTH.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise MalformedMessage(f"frame length {length} exceeds limit")
            end = _LENGTH.size + length
            if len(self._buf) < end:
                return
            body = bytes(self._buf[_LENGTH.size : end])
            del self._buf[:end]
            yield decode_body(body, reference)
