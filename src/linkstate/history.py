"""Undo history: a baseline snapshot plus a list of invertible diff steps.

The log attaches to a live root and records through a grouped callback, so
however many edits land within one frame flush, they coalesce into a single
step holding a forward and a backward diff. Undo/redo/jump bring the root
to a state of the log; the resulting flush sees no difference against the
log's own snapshot and records nothing, which is what keeps undo from
re-recording itself.

The log reads the root's cached plain snapshot (see linkable), so a record
costs the changed path plus one C-level identity pass over the root
entries, not a walk of the whole tree. One walk gives both of a record's
diffs (statetree._diff_both): only the changed entries are diffed, once
each way, and every other item of both diffs is the bare mention from the
snapshots' one shared mention list. So every step over a lineage of
snapshots shares its unchanged items with every other step, and a step
costs two lists of pointers plus its changed items. The snapshots and
every state an apply
builds from them hold trusted built entry lists (statetree._EntryList), so
neither a record's diffs nor a replay check any entry's shape; the
baseline of a log read from JSON is checked once at import and then holds
built lists too (_built).

The log keeps the snapshot recorded after each step: snapshots are never
mutated and share every unchanged subtree, so a kept state costs one root
list plus the changed path. A snapshot is kept only while the root is on
the log: its snapshot *is* the kept state at the cursor, not merely one
equivalent to it. attach lands the root there (an imported log's root
reaches the state at the log's cursor), and so do a record and every
navigation where they can. Edits absorbed while capture is paused (or made
before an undo in the same frame) put the root off the log, and the states
recorded after that are not kept. state_at and jump_to read the
kept state; where none is kept (that case, or a log read from JSON), they
apply the forward diffs to the nearest kept state. An apply never mutates
its base, so replay copies nothing; stored steps and kept states are never
modified.

Navigation reaches the log's own state (path copying: the live snapshots
join the log's persistent lineage). A root on the log, not edited since it
last landed, reaches the kept state at the new cursor (linkable._reach):
walking only the subtrees whose snapshot is not the kept one, it makes the
kept subtrees its cached snapshots, so no diff is computed or parsed. Any
other root merges the step's diff (remove_missing=False): a step names
every entry that survives it, so a root on the log lands where the step
goes, and of the edits a root absorbed off the log, the values the step
does not touch, the removals and the creations are kept. Replay (state_at,
jump_to, verify) applies steps with remove_missing=True.
jump_to reaches the state at its index, kept or replayed, in one walk.
After attach, any navigation or a capture resume a root whose snapshot is
equivalent to the kept state reaches it too, which triggers nothing; a leaf
whose value is equal but keyed in another order (a merge cannot put a
re-added key back in its old place) takes the kept value. So the root
encodes exactly as state_at(cursor), and the next record and navigation
compare the changed entries alone.

verify replays every step from the baseline and compares by identity
first (statetree._diff_plain), so each step costs its changed entries. A
step read from JSON that cannot be applied (it would repeat an entry name)
fails verify with every later step, and state_at past it is a ParseError.

Exported logs are version-1 JSON documents (docs/history-format.md). An
import parses with statetree.parse_json, so a log holding a number no state
may hold (NaN, Infinity, 1e999) is a ParseError, not a log that cannot be
exported again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from .errors import (
    AlreadyAttached,
    IndexOutOfRange,
    NothingToRedo,
    NothingToUndo,
    ParseError,
    VersionMismatch,
)
from .linkable import LinkableObject
from .statetree import (
    StateNode,
    _apply,
    _canonical,
    _EntryList,
    _is_entry_list,
    _diff_both,
    _diff_plain,
    _plain_equivalent,
    encode_diff,
    is_empty_diff,
    parse_json,
    to_plain,
)

FORMAT_VERSION = 1

_MISSING = object()


def _built(node: Any) -> Any:
    """The checked canonical tree node (statetree._canonical) copied with
    its entry lists made built lists, which those checks vouch for: a baseline
    read from JSON is then a state like any snapshot, which replay reads in
    place and a live root adopts."""
    if isinstance(node, dict):
        return {k: _built(v) for k, v in node.items()}
    if isinstance(node, list):
        out = [_built(x) for x in node]
        return _EntryList(out) if _is_entry_list(out) else out
    return node


@dataclass
class HistoryStep:
    forward: Any
    backward: Any
    timestamp_ms: int
    label: str = ""


class HistoryLog:
    """Undo/redo log over one root object's session state."""

    def __init__(self, clock_ms: Callable[[], int] | None = None):
        self._clock = clock_ms or (lambda: int(time.time() * 1000))
        self._root: LinkableObject | None = None
        self._recorder = None
        self._steps: list[HistoryStep] = []
        # _states[i]: the plain state after i steps, or _MISSING where none is
        # kept; _states[0] is the baseline, _MISSING until the log has one.
        self._states: list[Any] = [_MISSING]
        self._cursor = 0
        # The plain snapshot of the root, never mutated. The root is on the
        # log while _last is the kept _states[_cursor]: the snapshot recorded
        # next is then the log's state after its step, and is kept.
        self._last: Any = None
        self._capturing = True
        self._next_label = ""

    # -- introspection ----------------------------------------------------------

    @property
    def steps(self) -> tuple[HistoryStep, ...]:
        """The recorded steps. Their diffs are shared, read-only values:
        the items of one step are items of others and of the log's own
        bookkeeping, so copy a diff (export_json, to_plain) to change it."""
        return tuple(self._steps)

    @property
    def cursor(self) -> int:
        return self._cursor

    @property
    def baseline(self) -> StateNode:
        return to_plain(self._replay(0))

    @property
    def can_undo(self) -> bool:
        return self._cursor > 0

    @property
    def can_redo(self) -> bool:
        return self._cursor < len(self._steps)

    @property
    def capturing(self) -> bool:
        return self._capturing

    @capturing.setter
    def capturing(self, on: bool) -> None:
        # Edits made while paused are absorbed silently on resume; that is
        # how remote sync changes stay out of the local undo log.
        on = bool(on)
        if on and not self._capturing and self._root is not None and not self._root.disposed:
            self._track(self._root)
        self._capturing = on

    def set_next_label(self, label: str) -> None:
        self._next_label = label

    # -- attachment -----------------------------------------------------------------

    def attach(self, root: LinkableObject) -> None:
        """Start recording root. A new log takes the root's state as its
        baseline; a log that has one (imported, or attached before, even a
        null one) requires the root's current state to match the state at
        the log's cursor."""
        if self._root is not None:
            raise AlreadyAttached("this log already records a root")
        root._check_live()
        current = root._snapshot()
        if self._states[0] is _MISSING:
            self._states = [current]
        else:
            at_cursor = self._replay(self._cursor)
            if not _plain_equivalent(at_cursor, current):
                raise ValueError("root state does not match the log at its cursor")
            self._states[self._cursor] = at_cursor
        self._root = root
        self._track(root)
        self._recorder = root.callbacks.add_grouped_callback(self._record)

    def detach(self) -> None:
        if self._root is None:
            return
        if not self._root.callbacks.disposed:
            self._root.callbacks.remove_callback(self._recorder)
        self._root = None
        self._recorder = None

    def _require_attached(self) -> LinkableObject:
        if self._root is None or self._root.disposed:
            raise ValueError("history log is not attached to a live root")
        return self._root

    # -- recording -----------------------------------------------------------------

    def _record(self) -> None:
        # Runs only while attached to a live root: detach removes this
        # callback and the root's dispose kills it.
        if not self._capturing:
            return
        current = self._root._snapshot()
        forward, backward = _diff_both(self._last, current)
        if is_empty_diff(forward):
            return
        del self._steps[self._cursor :]
        del self._states[self._cursor + 1 :]
        self._steps.append(HistoryStep(forward, backward, int(self._clock()), self._next_label))
        self._states.append(current if self._last is self._states[self._cursor] else _MISSING)
        self._next_label = ""
        self._cursor = len(self._steps)
        self._last = current

    # -- navigation ------------------------------------------------------------------

    def undo(self) -> None:
        root = self._require_attached()
        if self._cursor == 0:
            raise NothingToUndo("already at the beginning of the log")
        self._step_to(root, self._cursor - 1, self._steps[self._cursor - 1].backward)

    def redo(self) -> None:
        root = self._require_attached()
        if self._cursor >= len(self._steps):
            raise NothingToRedo("already at the end of the log")
        self._step_to(root, self._cursor + 1, self._steps[self._cursor].forward)

    def _step_to(self, root: LinkableObject, index: int, step_diff: Any) -> None:
        # A root still at the kept state it last landed on reaches the kept
        # state at index; any other (off the log, or edited since) merges
        # the step's diff, which keeps an entry created off the log.
        kept = self._states[index]
        if kept is not _MISSING and root._snapshot() is self._last is self._states[self._cursor]:
            root._reach(kept)
        else:
            root.set_session_state(step_diff, remove_missing=False)
        self._cursor = index
        self._track(root)

    def jump_to(self, index: int) -> None:
        """Go to the state after index steps, as one composite application."""
        root = self._require_attached()
        root._reach(self._replay(index))
        self._cursor = index
        self._track(root)

    def _track(self, root: LinkableObject) -> None:
        # The root is on the log when its snapshot is the kept state at the
        # cursor; one equivalent to it reaches it, which triggers nothing
        # and makes the kept subtrees its snapshots, so the next record and
        # navigation compare by identity. Then take the root's snapshot as
        # the one the next record diffs against.
        kept = self._states[self._cursor]
        snap = root._snapshot()
        if kept is not _MISSING and snap is not kept and _diff_plain(snap, kept) == {}:
            root._reach(kept)
        self._last = root._snapshot()

    def state_at(self, index: int) -> StateNode:
        """The state after the first index steps, as a fresh value."""
        return to_plain(self._replay(index))

    def verify(self) -> list[int]:
        """Replay every step from the baseline and test its inverse; returns
        bad step indices. A step whose forward diff does not reach the state
        kept after it is bad too, and so is one whose forward diff cannot be
        applied at all (it would repeat an entry name), along with every
        later step, which the baseline then cannot reach. Where a step
        reaches its kept state the replay goes on from that state: the two
        are equivalent, and the next steps then compare by identity."""
        bad = []
        state = self._states[0]
        for i, step in enumerate(self._steps):
            try:
                reached = _apply(state, step.forward, True)
            except ValueError:
                return bad + list(range(i, len(self._steps)))
            kept = self._states[i + 1]
            try:
                ok = _diff_plain(_apply(reached, step.backward, True), state) == {}
            except ValueError:
                ok = False
            if kept is not _MISSING:
                if _diff_plain(reached, kept) == {}:
                    reached = kept
                else:
                    ok = False
            if not ok:
                bad.append(i)
            state = reached
        return bad

    def _replay(self, index: int) -> Any:
        """Plain state after the first index steps, to be read only: a kept
        state as it is, or the nearest kept state before index with the
        steps after it applied."""
        if not 0 <= index <= len(self._steps):
            raise IndexOutOfRange(f"step index {index} outside [0, {len(self._steps)}]")
        if self._states[0] is _MISSING:
            raise ValueError("history log has no baseline until it first attaches")
        start = index
        while self._states[start] is _MISSING:
            start -= 1
        if start == index:
            return self._states[index]
        state = self._states[start]
        for i in range(start, index):
            try:
                state = _apply(state, self._steps[i].forward, True)
            except ValueError as e:  # a step read from JSON that repeats an entry name
                raise ParseError(f"step {i} cannot be applied: {e}") from e
        return state

    # -- persistence ------------------------------------------------------------------

    def export_json(self) -> str:
        payload = {
            "version": FORMAT_VERSION,
            "baseline": self._replay(0),
            "cursor": self._cursor,
            "steps": [
                {
                    "forward": s.forward,
                    "backward": s.backward,
                    "timestampMs": s.timestamp_ms,
                    "label": s.label,
                }
                for s in self._steps
            ],
        }
        return encode_diff(payload)

    @classmethod
    def import_json(cls, text: str, clock_ms: Callable[[], int] | None = None) -> "HistoryLog":
        """Parse an exported log into a detached HistoryLog."""
        try:
            data = parse_json(text)
        except ValueError as e:  # bad JSON, or a non-finite number no log may hold
            raise ParseError(f"malformed history log: {e}") from e
        if not isinstance(data, dict):
            raise ParseError("history log must be a JSON object")
        version = data.get("version")
        if version != FORMAT_VERSION:
            raise VersionMismatch(f"unsupported history format version {version!r}")
        steps_data = data.get("steps")
        cursor = data.get("cursor")
        if not isinstance(steps_data, list) or type(cursor) is not int:
            raise ParseError("history log needs integer 'cursor' and list 'steps'")
        if not 0 <= cursor <= len(steps_data):
            raise ParseError(f"cursor {cursor} outside [0, {len(steps_data)}]")
        try:
            baseline = _built(_canonical(data.get("baseline")))
        except ValueError as e:  # an entry list that repeats a name
            raise ParseError(f"malformed history baseline: {e}") from e
        log = cls(clock_ms)
        log._states = [baseline] + [_MISSING] * len(steps_data)
        log._cursor = cursor
        for i, raw in enumerate(steps_data):
            if not isinstance(raw, dict) or "forward" not in raw or "backward" not in raw:
                raise ParseError(f"step {i} needs 'forward' and 'backward' diffs")
            timestamp = raw.get("timestampMs", 0)
            if type(timestamp) not in (int, float):  # a bool is no timestamp
                raise ParseError(f"step {i}: 'timestampMs' must be a number, got {timestamp!r}")
            if not isinstance(label := raw.get("label", ""), str):
                raise ParseError(f"step {i}: 'label' must be a string, got {label!r}")
            log._steps.append(
                HistoryStep(
                    forward=raw["forward"],
                    backward=raw["backward"],
                    timestamp_ms=int(timestamp),
                    label=label,
                )
            )
        return log
