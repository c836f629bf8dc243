"""Client engine: publishes local frame diffs, applies the relay's stream.

Echo avoidance works through bookkeeping rather than flags on the wire:
`_published` is the state the relay has been told about, and every applied
remote message (including the Ack echo of our own diffs) advances it. A flush
therefore publishes exactly diff(_published, current), which is empty when
the only changes since the last flush came from the relay. `_published` is
plain JSON and never mutated: a remote message yields a new version sharing
every subtree the message leaves alone.

Re-applying our own Ack is deliberate. Between our send and its echo the
relay may have ordered someone else's diff first; replaying the echo puts our
write after theirs exactly as the relay did, so every participant settles on
the same last-writer-wins result.

A flush diffs `_published` against the root's cached snapshot (see linkable),
so an unchanged subtree costs one identity check, and then keeps that
snapshot as `_published` (equivalent to applying the sent diff), so the next
flush walks only what changed since. The two share one mention list, so the
flush's diff is a C-level identity pass plus the changed entries, and it
carries that list (statetree._InPlaceDiff), so its frame is written from
the list's text. Inbound frames are decoded against `_published`
(read_base).

An inbound payload is applied only if it is an entry diff, read once
(statetree._entry_diff) over `_published`: a diff that names its entries in
their places has only its changed items parsed, and the value-level apply
(statetree._apply_entry_diff) gives the new `_published`. A root with no
edit since `_published` (its snapshot is `_published`) reaches the new one
(linkable._reach), which leaves its snapshot being `_published` again, so
the next flush's diff is one identity check. A root with edits not yet
published reaches the same parsed items applied over its own snapshot: in
place when the snapshot pairs with the mention list they were read over,
else by name, so the payload is still parsed once. That keeps the edits at
sites the payload does not write for the next flush; an edit at a site it
writes is overwritten and never sent (a known limitation,
docs/protocol.md). `{}` or any other payload changes neither, so a hostile
one cannot replace the `_published` shadow, and nor does an entry diff
that fails to apply over either (only a foreign relay sends one: two
creations of one name, say); it is dropped with a warning. `_published`
is always a snapshot or an apply's result, a trusted built entry list, so
that apply checks no entry's shape.

The root cannot always hold what `_published` holds: it keeps no entry of
a class its registry lacks, no anonymous or reference root entry, and no
value its verifiers reject. Then its snapshot is not `_published`, and the
next flush diffs `_published` against the snapshot that lacks them, so a
client whose registry lacks a class used in the session sends removals for
that class's objects (a known defect, docs/protocol.md).
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Any, Callable

from ..callbacks import FrameScheduler
from ..dynamic import ClassRegistry, LinkableHashMap
from ..statetree import _apply_entry_diff, _diff_for_wire, _entry_diff, is_empty_diff
from .wire import Message

log = logging.getLogger(__name__)


class ClientEngine:
    """One collaborator: a live root hash map plus sync bookkeeping.

    The engine is single-threaded; callers drive it with on_message() for
    inbound traffic and flush(now_ms) once per frame.
    """

    def __init__(
        self,
        client_id: str,
        session_id: str,
        registry: ClassRegistry,
        send: Callable[[Message], None],
        ack_timeout_ms: int = 250,
        gap_timeout_ms: int = 250,
    ):
        self.client_id = client_id
        self.session_id = session_id
        self.scheduler = FrameScheduler()
        self.root = LinkableHashMap(registry, self.scheduler)
        self._send = send
        self.ack_timeout_ms = ack_timeout_ms
        self.gap_timeout_ms = gap_timeout_ms

        self.joined = False
        self.last_server_seq = 0
        self._dirty = False
        self._published: Any = self.root._snapshot()
        self._pending: deque[list] = deque()  # [diff, lastSentMs]
        self._buffer: dict[int, Message] = {}
        self._gap_since_ms: int | None = None
        self._hello_sent_ms: int | None = None

        self.stats = {
            "sentDiffs": 0,
            "recvDiffs": 0,
            "acks": 0,
            "retransmits": 0,
            "resyncs": 0,
            "staleDrops": 0,
        }

        self.root.callbacks.add_grouped_callback(self._mark_dirty)

    def _mark_dirty(self) -> None:
        self._dirty = True

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def quiescent(self) -> bool:
        """Nothing left to say or wait for; used to detect settling."""
        return (
            self.joined
            and not self._dirty
            and not self.scheduler.has_pending
            and not self._pending
            and not self._buffer
            and self._gap_since_ms is None
        )

    # -- outbound --------------------------------------------------------------

    def hello(self, now_ms: int) -> None:
        self._hello_sent_ms = now_ms
        self._send(Message("Hello", self.session_id, self.client_id))

    def flush(self, now_ms: int) -> None:
        """Run the frame flush, publish local changes, handle timeouts."""
        self.scheduler.flush_frame()
        if not self.joined:
            # First flush sends the initial Hello; later ones re-ask when the
            # Welcome is overdue. Periodic flushing alone must reach a join.
            if self._hello_sent_ms is None or now_ms - self._hello_sent_ms >= self.ack_timeout_ms:
                self.hello(now_ms)
            return
        if self._dirty:
            self._dirty = False
            snapshot = self.root._snapshot()
            d = _diff_for_wire(self._published, snapshot)
            self._published = snapshot
            if not is_empty_diff(d):
                self._pending.append([d, now_ms])
                self.stats["sentDiffs"] += 1
                self._send(Message("Diff", self.session_id, self.client_id, 0, d))
        if self._pending and now_ms - self._pending[0][1] >= self.ack_timeout_ms:
            head = self._pending[0]
            head[1] = now_ms
            self.stats["retransmits"] += 1
            self._send(Message("Diff", self.session_id, self.client_id, 0, head[0]))
        if self._gap_since_ms is not None and now_ms - self._gap_since_ms >= self.gap_timeout_ms:
            # re-arm rather than disarm: if the FullState reply is lost too,
            # the next timeout asks again
            self._gap_since_ms = now_ms
            self.stats["resyncs"] += 1
            self.hello(now_ms)

    # -- inbound -----------------------------------------------------------------

    def read_base(self, session_id: str) -> Any:
        """The state a payload is read against on the wire
        (wire.decode_body): _published, which the payload is applied to."""
        return self._published

    def on_message(self, msg: Message, now_ms: int) -> None:
        if msg.session_id != self.session_id:
            log.warning("%s: message for foreign session %r dropped", self.client_id, msg.session_id)
        elif msg.kind in ("Welcome", "FullState"):
            self._full_reset(msg)
            self._drain_buffer(now_ms)
        elif msg.kind not in ("Diff", "Ack"):
            log.warning("%s: unexpected %s message dropped", self.client_id, msg.kind)
        elif msg.server_seq <= self.last_server_seq:
            self.stats["staleDrops"] += 1
        else:
            # in order or not, a Diff or Ack is applied from the buffer
            self._buffer[msg.server_seq] = msg
            self._drain_buffer(now_ms)

    def _drain_buffer(self, now_ms: int) -> None:
        while self.last_server_seq + 1 in self._buffer:
            self._apply_ordered(self._buffer.pop(self.last_server_seq + 1))
        for seq in [s for s in self._buffer if s <= self.last_server_seq]:
            del self._buffer[seq]
        if not self._buffer:
            self._gap_since_ms = None
        elif self._gap_since_ms is None:
            self._gap_since_ms = now_ms

    def _apply_ordered(self, msg: Message) -> None:
        self.last_server_seq = msg.server_seq
        if msg.kind == "Ack":
            self.stats["acks"] += 1
            for i, (d, _) in enumerate(self._pending):
                if d == msg.payload:
                    del self._pending[i]
                    break
        else:
            self.stats["recvDiffs"] += 1
        # the apply below schedules _mark_dirty; the publish diff will be
        # empty for pure remote changes because _published advances in step.
        # An entry diff is parsed once, over _published; {} or any other
        # payload changes neither. A root with no edit since _published
        # reaches the new _published; one with unpublished edits reaches the
        # same items applied over its own snapshot, which keeps those at
        # sites the payload does not write. A payload that fails to apply
        # over either changes neither.
        parsed = _entry_diff(msg.payload, self._published)
        if parsed is not None:
            snapshot = self.root._snapshot()
            try:
                published = _apply_entry_diff(self._published, *parsed, False)
                target = published if snapshot is self._published else _apply_entry_diff(snapshot, *parsed, False)
            except (TypeError, ValueError, RecursionError) as e:
                log.warning("%s: %s seq=%d does not apply, dropped: %s", self.client_id, msg.kind, msg.server_seq, e)
                return
            self.root._reach(target)
            self._published = published

    def _full_reset(self, msg: Message) -> None:
        self.joined = True
        self._hello_sent_ms = None
        self.last_server_seq = msg.server_seq
        self._gap_since_ms = None
        self.root.set_session_state(msg.payload, remove_missing=True)
        self._published = self.root._snapshot()
        # pending diffs stay queued: the retransmit path replays any local
        # edits the relay never saw. A retransmit the relay did see applies
        # twice, and can put an older write back over a newer one (a known
        # limitation, docs/protocol.md)
