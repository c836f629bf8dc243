"""Relay server: authoritative session state and the serverSeq total order.

The relay never instantiates live objects. It folds incoming diffs into a
value-level state tree in arrival order, stamps each with the next serverSeq,
and rebroadcasts. The sender receives its own diff back as an Ack so every
participant applies the identical totally-ordered stream.

The session state is plain JSON and never mutated: a diff yields a new
version sharing every entry it leaves alone, so handed-out Welcome and
FullState payloads stay as they were and a failed apply changes nothing.
It is a trusted built entry list (statetree._EntryList), so an apply checks
none of the state's entries. A diff that names the state's entries in their
own places (a client's edit) is read in place: one C-level pass against the
state's mention list finds the changed items, only those are parsed, and
the new state is a copy with their entries replaced, sharing the mention
list. On the wire such a diff is decoded against the state (read_base), so
its unchanged items already are the mention list's dicts, and the fan-out
that forwards it is written from the mention list's text. Any other diff
is read once and applied by name, and is refused as malformed if two of
its items name one entry (but for the removal and re-creation of a
demotion; statetree._names_each_entry_once reads the items): the relay's
state could take it, but a client that has removed the entry, its removal
not yet applied, would create the entry from each item.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any

from ..errors import MalformedMessage
from ..statetree import StateNode, _apply_entry_diff, _entry_diff, _names_each_entry_once
from .wire import Message

log = logging.getLogger(__name__)


@dataclass
class _Session:
    state: StateNode = field(default_factory=list)  # root hash maps serialize to entry lists
    server_seq: int = 0
    members: dict[str, None] = field(default_factory=dict)  # insertion-ordered set
    applied: list[tuple[int, str, Any]] = field(default_factory=list)  # (seq, sender, diff)


class Relay:
    """Single-threaded relay actor. handle() maps one inbound message to the
    outbound (targetClientId, Message) list; transports do the routing."""

    def __init__(self):
        self._sessions: dict[str, _Session] = {}

    def session_ids(self) -> list[str]:
        return list(self._sessions)

    def session_state(self, session_id: str) -> StateNode:
        return self._sessions[session_id].state

    def session_seq(self, session_id: str) -> int:
        return self._sessions[session_id].server_seq

    def applied_log(self, session_id: str) -> list[tuple[int, str, Any]]:
        return list(self._sessions[session_id].applied)

    def read_base(self, session_id: str) -> StateNode | None:
        """The state a payload for session_id is read against on the wire
        (wire.decode_body), or None for a session not yet started."""
        session = self._sessions.get(session_id)
        return session.state if session is not None else None

    def handle(self, msg: Message) -> list[tuple[str, Message]]:
        try:
            return self._dispatch(msg)
        except MalformedMessage as e:
            log.warning("dropping malformed message from %r: %s", msg.sender_id, e)
            return []

    def _dispatch(self, msg: Message) -> list[tuple[str, Message]]:
        if not msg.session_id or not msg.sender_id:
            raise MalformedMessage("empty sessionId or senderId")
        if msg.kind not in ("Hello", "Diff"):
            raise MalformedMessage(f"clients may not send {msg.kind!r}")
        session = self._sessions.get(msg.session_id)
        if session is None:
            session = self._sessions[msg.session_id] = _Session()

        if msg.kind == "Hello":
            # First contact gets Welcome; later Hellos are resync requests.
            rejoin = msg.sender_id in session.members
            session.members[msg.sender_id] = None
            reply = Message(
                kind="FullState" if rejoin else "Welcome",
                session_id=msg.session_id,
                sender_id="server",
                server_seq=session.server_seq,
                payload=session.state,
            )
            return [(msg.sender_id, reply)]

        session.members.setdefault(msg.sender_id, None)
        if msg.payload != {}:
            # The root is an entry list: anything but an entry diff or {} would
            # replace it with a state no client can adopt. The one parse of
            # the diff feeds the apply.
            parsed = _entry_diff(msg.payload, session.state)
            if parsed is None:
                raise MalformedMessage("a root diff must be an entry diff or {}")
            if type(parsed[0]) is list and not _names_each_entry_once(parsed[0]):
                raise MalformedMessage("a root diff may not name an entry twice")
            try:
                session.state = _apply_entry_diff(session.state, *parsed, False)
            except (TypeError, ValueError, RecursionError) as e:
                raise MalformedMessage(f"diff payload does not apply: {e}") from e
        session.server_seq += 1
        session.applied.append((session.server_seq, msg.sender_id, msg.payload))
        # One Diff message for every other member, so a transport encodes
        # its body once.
        fanout = Message("Diff", msg.session_id, msg.sender_id, session.server_seq, msg.payload)
        ack = Message("Ack", msg.session_id, msg.sender_id, session.server_seq, msg.payload)
        return [(member, ack if member == msg.sender_id else fanout) for member in session.members]
