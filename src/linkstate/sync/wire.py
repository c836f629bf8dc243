"""Sync wire format: length-prefixed UTF-8 JSON messages.

Each frame is a 4-byte big-endian payload length followed by one JSON object
with the fields `kind`, `sessionId`, `senderId`, `serverSeq`, `payload`.
Documented in docs/protocol.md.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterator

from ..errors import MalformedMessage
from ..statetree import encode_diff, parse_json

KINDS = frozenset({"Hello", "Welcome", "Diff", "FullState", "Ack"})

MAX_FRAME_BYTES = 64 * 1024 * 1024  # refuse absurd length prefixes

_LENGTH = struct.Struct(">I")


@dataclass(frozen=True)
class Message:
    kind: str
    session_id: str
    sender_id: str
    server_seq: int = 0
    payload: Any = None


def encode_frame(msg: Message, payload_text: str | None = None) -> bytes:
    """The frame of msg. payload_text, when given, is encode_diff(msg.payload)
    already made; the frame's bytes are the same either way."""
    if msg.kind not in KINDS:
        raise MalformedMessage(f"unknown message kind {msg.kind!r}")
    if payload_text is None:
        payload_text = encode_diff(msg.payload)
    # payload is the last key, so the envelope with a null one ends in `null}`
    envelope = encode_diff(
        {
            "kind": msg.kind,
            "sessionId": msg.session_id,
            "senderId": msg.sender_id,
            "serverSeq": msg.server_seq,
            "payload": None,
        }
    )
    body = (envelope[:-5] + payload_text + "}").encode("utf-8")
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


def decode_body(body: bytes) -> Message:
    try:
        data = parse_json(body.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        # ValueError: bad UTF-8, bad JSON, a non-finite number or an integer
        # too long to convert; RecursionError: nested deeper than the
        # decoder can follow
        raise MalformedMessage(f"undecodable frame body: {e}") from e
    if not isinstance(data, dict):
        raise MalformedMessage("frame body must be a JSON object")
    kind = data.get("kind")
    session_id = data.get("sessionId")
    sender_id = data.get("senderId")
    server_seq = data.get("serverSeq", 0)
    if kind not in KINDS:
        raise MalformedMessage(f"unknown message kind {kind!r}")
    if not isinstance(session_id, str) or not isinstance(sender_id, str):
        raise MalformedMessage("sessionId and senderId must be strings")
    if not isinstance(server_seq, int) or isinstance(server_seq, bool) or server_seq < 0:
        raise MalformedMessage("serverSeq must be a non-negative integer")
    return Message(kind, session_id, sender_id, server_seq, data.get("payload"))


def decode_frame(frame: bytes) -> Message:
    """Decode one complete frame (prefix plus body)."""
    if len(frame) < _LENGTH.size:
        raise MalformedMessage("frame shorter than its length prefix")
    (length,) = _LENGTH.unpack_from(frame)
    if length > MAX_FRAME_BYTES:
        raise MalformedMessage(f"frame length {length} exceeds limit")
    body = frame[_LENGTH.size :]
    if len(body) != length:
        raise MalformedMessage(f"frame body is {len(body)} bytes, prefix says {length}")
    return decode_body(body)


class Framer:
    """Reassembles messages from an arbitrary-chunked byte stream."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> Iterator[Message]:
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
            yield decode_body(body)
