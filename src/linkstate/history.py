"""Undo history: a baseline snapshot plus a list of invertible diff steps.

The log attaches to a live root and records through a grouped callback, so
however many edits land within one frame flush, they coalesce into a single
step holding a forward and a backward diff. Undo/redo/jump apply one of those
diffs back to the root; the resulting flush sees no difference against the
log's own snapshot and records nothing, which is what keeps undo from
re-recording itself.

The log reads the root's cached plain snapshot (see linkable), so a record
costs the changed path plus one identity check per entry of an entry list,
not a walk of the whole tree. It keeps the snapshot recorded after each
step: snapshots are never mutated and share every unchanged subtree, so a
kept state costs one root list plus the changed path. A snapshot is kept
only while the root matches the log's state at the cursor: edits absorbed
while capture is paused (or made before an undo in the same frame) put the
root off the log, and the states recorded after that are not kept. state_at
and jump_to read the kept state; where none is kept (that case, or a log
read from JSON), they apply the forward diffs to the nearest kept state.
verify always replays from the baseline. An apply never mutates its base,
so replay copies nothing; stored steps and kept states are never modified.

Exported logs are version-1 JSON documents (docs/history-format.md).
"""

from __future__ import annotations

import json
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
    _diff_plain,
    _plain_equivalent,
    is_empty_diff,
    to_plain,
)

FORMAT_VERSION = 1

_MISSING = object()


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
        # kept; _states[0] is the baseline, None until the log has one.
        self._states: list[Any] = [None]
        self._cursor = 0
        self._last: Any = None  # plain snapshot of the root, never mutated
        # Whether _last is equivalent to the kept _states[_cursor], so that
        # the snapshot recorded next is the log's state after its step.
        self._on_log = False
        self._capturing = True
        self._next_label = ""

    # -- introspection ----------------------------------------------------------

    @property
    def steps(self) -> tuple[HistoryStep, ...]:
        return tuple(self._steps)

    @property
    def cursor(self) -> int:
        return self._cursor

    @property
    def baseline(self) -> StateNode:
        return to_plain(self._states[0])

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
        """Start recording root. A log with imported content requires the
        root's current state to match the state at the log's cursor."""
        if self._root is not None:
            raise AlreadyAttached("this log already records a root")
        root._check_live()
        current = root._snapshot()
        if self._states[0] is None and not self._steps:
            self._states = [current]
        else:
            at_cursor = self._replay(self._cursor)
            if not _plain_equivalent(at_cursor, current):
                raise ValueError("root state does not match the log at its cursor")
            self._states[self._cursor] = at_cursor
        self._root = root
        self._last = current
        self._on_log = True
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
        if self._root is None or self._root.disposed or not self._capturing:
            return
        current = self._root._snapshot()
        forward = _diff_plain(self._last, current)
        if is_empty_diff(forward):
            return
        backward = _diff_plain(current, self._last)
        del self._steps[self._cursor :]
        del self._states[self._cursor + 1 :]
        self._steps.append(HistoryStep(forward, backward, int(self._clock()), self._next_label))
        self._states.append(current if self._on_log else _MISSING)
        self._next_label = ""
        self._cursor = len(self._steps)
        self._last = current

    # -- navigation ------------------------------------------------------------------

    def undo(self) -> None:
        root = self._require_attached()
        if self._cursor == 0:
            raise NothingToUndo("already at the beginning of the log")
        root.set_session_state(self._steps[self._cursor - 1].backward, remove_missing=True)
        self._cursor -= 1
        self._track(root)

    def redo(self) -> None:
        root = self._require_attached()
        if self._cursor >= len(self._steps):
            raise NothingToRedo("already at the end of the log")
        root.set_session_state(self._steps[self._cursor].forward, remove_missing=True)
        self._cursor += 1
        self._track(root)

    def jump_to(self, index: int) -> None:
        """Go to the state after index steps, as one composite application."""
        root = self._require_attached()
        target = self._replay(index)
        d = _diff_plain(root._snapshot(), target)
        if not is_empty_diff(d):
            root.set_session_state(d, remove_missing=True)
        self._cursor = index
        self._track(root)

    def _track(self, root: LinkableObject) -> None:
        # Take the root's snapshot as the one the next record diffs against,
        # and note whether it is still the log's state at the cursor.
        self._last = root._snapshot()
        kept = self._states[self._cursor]
        self._on_log = kept is not _MISSING and is_empty_diff(_diff_plain(kept, self._last))

    def state_at(self, index: int) -> StateNode:
        """The state after the first index steps, as a fresh value."""
        return to_plain(self._replay(index))

    def verify(self) -> list[int]:
        """Replay every step from the baseline and test its inverse; returns
        bad step indices. A step whose forward diff does not reach the state
        kept after it is bad too."""
        bad = []
        state = self._states[0]
        for i, step in enumerate(self._steps):
            reached = _apply(state, step.forward, True)
            kept = self._states[i + 1]
            ok = kept is _MISSING or _plain_equivalent(reached, kept)
            if not (ok and _plain_equivalent(_apply(reached, step.backward, True), state)):
                bad.append(i)
            state = reached
        return bad

    def _replay(self, index: int) -> Any:
        """Plain state after the first index steps, to be read only: a kept
        state as it is, or the nearest kept state before index with the
        steps after it applied."""
        if not 0 <= index <= len(self._steps):
            raise IndexOutOfRange(f"step index {index} outside [0, {len(self._steps)}]")
        start = index
        while self._states[start] is _MISSING:
            start -= 1
        if start == index:
            return self._states[index]
        state = self._states[start]
        for step in self._steps[start:index]:
            state = _apply(state, step.forward, True)
        return state

    # -- persistence ------------------------------------------------------------------

    def export_json(self) -> str:
        payload = {
            "version": FORMAT_VERSION,
            "baseline": self._states[0],
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
        return json.dumps(payload, ensure_ascii=False, allow_nan=False, separators=(",", ":"))

    @classmethod
    def import_json(cls, text: str, clock_ms: Callable[[], int] | None = None) -> "HistoryLog":
        """Parse an exported log into a detached HistoryLog."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"malformed history log: {e}") from e
        if not isinstance(data, dict):
            raise ParseError("history log must be a JSON object")
        version = data.get("version")
        if version != FORMAT_VERSION:
            raise VersionMismatch(f"unsupported history format version {version!r}")
        steps_data = data.get("steps")
        cursor = data.get("cursor")
        if not isinstance(steps_data, list) or not isinstance(cursor, int):
            raise ParseError("history log needs integer 'cursor' and list 'steps'")
        if not 0 <= cursor <= len(steps_data):
            raise ParseError(f"cursor {cursor} outside [0, {len(steps_data)}]")
        log = cls(clock_ms)
        log._states = [to_plain(data.get("baseline"))] + [_MISSING] * len(steps_data)
        log._cursor = cursor
        for i, raw in enumerate(steps_data):
            if not isinstance(raw, dict) or "forward" not in raw or "backward" not in raw:
                raise ParseError(f"step {i} needs 'forward' and 'backward' diffs")
            log._steps.append(
                HistoryStep(
                    forward=raw["forward"],
                    backward=raw["backward"],
                    timestamp_ms=int(raw.get("timestampMs", 0)),
                    label=str(raw.get("label", "")),
                )
            )
        return log
