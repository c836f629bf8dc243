"""Observer primitives: callback collections and frame-grouped scheduling.

Every observable object owns a CallbackCollection. Triggering a collection
runs its immediate callbacks, schedules its grouped callbacks for the next
frame flush, then bubbles the trigger to registered parent collections.
Delay/resume nesting collapses any number of triggers into one run.

Recursion is prohibited per callback, not per collection: a callback that
re-triggers its own collection is skipped for the nested pass while the
collection's other callbacks still run.

Each collection also carries one cache slot for a value derived from its
owner's state (a LinkableObject keeps its plain snapshot there). trigger()
clears the slot eagerly, before the delay check, and walks up the parent
collections clearing theirs, stopping at one already clear: a slot is only
filled after the slots below it, so the ones above a clear slot are clear
too. The trigger counter cannot stand in for this, because a delayed parent
counts only at resume() and a read during the delay would see stale state.
The walk also notes, on each parent, which child collection it cleared, and
a collection that triggers itself drops that note: an owner whose own state
did not change (a hash map whose entries only changed inside) can rebuild
its value from the noted children alone.

Set LINKSTATE_TRACE=1 to emit one trace line per callback invocation on
stderr.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Callable

from .errors import Disposed, DuplicateCallback, ReentrantFlush, ResumeWithoutDelay, UnknownHandle


STALE = object()
"""Marks an empty cache slot (None is a valid cached value)."""


def _trace(kind: str, fn: Callable) -> None:
    if os.environ.get("LINKSTATE_TRACE", "") == "1":
        name = getattr(fn, "__qualname__", None) or repr(fn)
        print(f"linkstate-trace: {kind} {name}", file=sys.stderr)


class CallbackEntry:
    """Registration handle. Holds the liveness and per-callback running flag.
    An entry is alive exactly while its collection lists it: remove_callback
    and dispose take it out as they mark it dead."""

    __slots__ = ("fn", "alive", "running")

    def __init__(self, fn: Callable):
        self.fn = fn
        self.alive = True
        self.running = False


class FrameScheduler:
    """Runs grouped callbacks once per frame flush.

    Grouped callbacks are deduplicated by function identity: the same function
    scheduled from any number of collections within one frame runs once.
    Callbacks scheduled during a flush run at the next flush.
    """

    def __init__(self):
        self._pending: dict[int, tuple[Callable, list[CallbackEntry]]] = {}
        self._flushing = False
        self._frame_count = 0

    @property
    def frame_count(self) -> int:
        return self._frame_count

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def schedule(self, entry: CallbackEntry) -> None:
        key = id(entry.fn)
        slot = self._pending.get(key)
        if slot is None:
            self._pending[key] = (entry.fn, [entry])
        else:
            slot[1].append(entry)

    def flush_frame(self) -> None:
        """Run the pending grouped callbacks, in first-scheduled order."""
        if self._flushing:
            raise ReentrantFlush("flush_frame() called from inside a frame flush")
        self._flushing = True
        try:
            batch = self._pending
            self._pending = {}
            for fn, entries in batch.values():
                # A removed callback scheduled earlier in the frame does not
                # run, unless another live registration scheduled it too.
                if any(e.alive for e in entries):
                    _trace("grouped", fn)
                    fn()
            self._frame_count += 1
        finally:
            self._flushing = False


_default_scheduler = FrameScheduler()


def default_scheduler() -> FrameScheduler:
    """The process-wide scheduler used when none is given explicitly."""
    return _default_scheduler


class CallbackCollection:
    """An ordered set of callbacks with delay/resume and parent bubbling."""

    def __init__(self, scheduler: FrameScheduler | None = None):
        self._immediate: list[CallbackEntry] = []
        self._grouped: list[CallbackEntry] = []
        self._parents: list[CallbackCollection] = []
        self._scheduler = scheduler or default_scheduler()
        self._delay = 0
        self._pending = False
        self._counter = 0
        self._disposed = False
        self._thread = threading.get_ident()
        self._cache = STALE
        # The child collections whose cache went stale since this one's was
        # filled (() for none yet: most never need a set), or None when this
        # collection itself triggered since.
        self._stale_children: set | tuple | None = None

    # -- introspection ------------------------------------------------------

    @property
    def trigger_counter(self) -> int:
        """Number of effective trigger runs (delayed triggers collapse)."""
        return self._counter

    @property
    def disposed(self) -> bool:
        return self._disposed

    @property
    def scheduler(self) -> FrameScheduler:
        return self._scheduler

    def _check_live(self) -> None:
        if self._disposed:
            raise Disposed("operation on a disposed callback collection")

    # -- registration ---------------------------------------------------------

    def add_immediate_callback(self, fn: Callable, run_now: bool = False) -> CallbackEntry:
        self._check_live()
        assert threading.get_ident() == self._thread, "callback collection used across threads"
        if any(e.fn is fn for e in self._immediate):
            raise DuplicateCallback(f"{fn!r} is already an immediate callback here")
        entry = CallbackEntry(fn)
        self._immediate.append(entry)
        if run_now:
            _trace("immediate", fn)
            fn()
        return entry

    def add_grouped_callback(self, fn: Callable) -> CallbackEntry:
        self._check_live()
        entry = CallbackEntry(fn)
        self._grouped.append(entry)
        return entry

    def remove_callback(self, handle: CallbackEntry) -> None:
        self._check_live()
        for bucket in (self._immediate, self._grouped):
            for e in bucket:
                if e is handle:
                    e.alive = False
                    bucket.remove(e)
                    return
        raise UnknownHandle("handle is not registered on this collection")

    # -- parents ----------------------------------------------------------------

    def _add_parent(self, parent: "CallbackCollection") -> None:
        if all(p is not parent for p in self._parents):
            self._parents.append(parent)

    def _remove_parent(self, parent: "CallbackCollection") -> None:
        self._parents = [p for p in self._parents if p is not parent]

    # -- triggering ----------------------------------------------------------------

    def trigger(self) -> None:
        self._check_live()
        assert threading.get_ident() == self._thread, "callback collection used across threads"
        self._drop_cache()
        if self._delay > 0:
            self._pending = True
            return
        self._run_now(set())

    def _drop_cache(self) -> None:
        self._stale_children = None
        if self._cache is STALE:
            return
        self._cache = STALE
        todo = [self]
        while todo:
            c = todo.pop()
            for p in c._parents:
                # Every edge from a newly cleared child is noted, even into
                # a parent already clear, so the parent can rebuild from the
                # children that changed alone.
                noted = p._stale_children
                if noted == ():
                    p._stale_children = {c}
                elif noted is not None:
                    noted.add(c)
                if p._cache is not STALE:
                    p._cache = STALE
                    todo.append(p)

    def delay(self) -> None:
        self._check_live()
        self._delay += 1

    def resume(self) -> None:
        self._check_live()
        if self._delay == 0:
            raise ResumeWithoutDelay("resume() without a matching delay()")
        self._delay -= 1
        if self._delay == 0 and self._pending:
            self._pending = False
            self._run_now(set())

    def _run_now(self, visited: set[int]) -> None:
        # visited spans one bubble pass: reference structures can make the
        # parent graph cyclic, and a pass must touch each collection once.
        # A nested trigger() from a callback starts a fresh pass.
        visited.add(id(self))
        self._counter += 1
        for entry in list(self._immediate):
            # Skipping entries that are mid-run is the recursion guard; a
            # callback removed earlier in this pass no longer runs either.
            if entry.alive and not entry.running:
                entry.running = True
                try:
                    _trace("immediate", entry.fn)
                    entry.fn()
                finally:
                    entry.running = False
        for entry in self._grouped:  # schedule() runs no callback: the list holds still
            self._scheduler.schedule(entry)
        for parent in list(self._parents):
            if id(parent) in visited:
                continue
            if parent._delay > 0:
                parent._pending = True
            else:
                parent._run_now(visited)

    # -- teardown ----------------------------------------------------------------

    def dispose(self) -> None:
        if self._disposed:
            return
        self._disposed = True
        for e in self._immediate + self._grouped:
            e.alive = False
        self._immediate.clear()
        self._grouped.clear()
        self._parents.clear()
