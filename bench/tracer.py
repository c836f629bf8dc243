"""Span tracing for the traced benchmark run, installed from outside linkstate.

The tracer wraps the public entry points of each layer on the edit path.
Module-level functions are replaced in every linkstate module that binds
them by name (``from .statetree import diff`` copies the reference, so
patching statetree alone would miss the callers). Methods are replaced on
the classes that define them.

A span is recorded only for the outermost call of a name on a thread, so
recursive walks (get_session_state, set_session_state, trigger) count once
per entry from another layer. Spans stay in memory until write() and carry
their parent span, which is what self time is computed from.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (span name, "module:function", size of the result or None)
FUNCTIONS = [
    ("statetree.diff", "linkstate.statetree:diff", None),
    ("statetree.apply_diff", "linkstate.statetree:apply_diff", None),
    ("statetree.encode", "linkstate.statetree:encode", len),
    ("statetree.state_equivalent", "linkstate.statetree:state_equivalent", None),
    ("wire.encode_frame", "linkstate.sync.wire:encode_frame", len),
    ("wire.decode_frame", "linkstate.sync.wire:decode_frame", None),
    # Framer.feed decodes through decode_body; one name covers both paths.
    ("wire.decode_frame", "linkstate.sync.wire:decode_body", None),
    ("sim.run_simulation", "linkstate.sync.sim:run_simulation", None),
]

# (span name, "module:Class.method", size of the result or None); one name
# over several classes is one recursive walk, so only its outermost call is
# a span
METHODS = [
    ("callbacks.flush_frame", "linkstate.callbacks:FrameScheduler.flush_frame", None),
    ("callbacks.trigger", "linkstate.callbacks:CallbackCollection.trigger", None),
    ("linkable.set_state", "linkstate.linkable:LinkableVariable.set_state", None),
    ("dynamic.get_session_state", "linkstate.linkable:LinkableObject.get_session_state", None),
    ("dynamic.get_session_state", "linkstate.linkable:LinkableVariable.get_session_state", None),
    ("dynamic.get_session_state", "linkstate.dynamic:LinkableHashMap.get_session_state", None),
    ("dynamic.get_session_state", "linkstate.dynamic:LinkableDynamicObject.get_session_state", None),
    ("dynamic.set_session_state", "linkstate.linkable:LinkableObject.set_session_state", None),
    ("dynamic.set_session_state", "linkstate.linkable:LinkableVariable.set_session_state", None),
    ("dynamic.set_session_state", "linkstate.dynamic:LinkableHashMap.set_session_state", None),
    ("dynamic.set_session_state", "linkstate.dynamic:LinkableDynamicObject.set_session_state", None),
    # the grouped callback HistoryLog.attach registers: the flush that
    # records; attach binds it, so install before the log is attached
    ("history.record", "linkstate.history:HistoryLog._record", None),
    ("history.undo", "linkstate.history:HistoryLog.undo", None),
    ("history.redo", "linkstate.history:HistoryLog.redo", None),
    ("history.jump_to", "linkstate.history:HistoryLog.jump_to", None),
    ("history.state_at", "linkstate.history:HistoryLog.state_at", None),
    ("relay.handle", "linkstate.sync.relay:Relay.handle", len),  # size: fan-out messages
    ("client.on_message", "linkstate.sync.client:ClientEngine.on_message", None),
    ("client.flush", "linkstate.sync.client:ClientEngine.flush", None),
    ("socket.pump", "linkstate.sync.socket_transport:SocketClient.pump", None),
]


def _linkstate_modules():
    return [m for n, m in list(sys.modules.items()) if n == "linkstate" or n.startswith("linkstate.")]


class Tracer:
    """Collects spans as (id, name, start_ns, end_ns, parent_id, size)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.on = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _open(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], set())
        return st

    def wrap(self, name: str, fn, size=None):
        spans = self.spans
        ids = self._ids
        open_state = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, open_names = open_state()
            if name in open_names or not self.on:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            open_names.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names.discard(name)
            spans.append((sid, name, start, end, parent, size(result) if size else 0))
            return result

        return traced

    @contextlib.contextmanager
    def recording(self):
        """Spans are recorded only inside this; set-up and checks stay out."""
        was, self.on = self.on, True
        try:
            yield
        finally:
            self.on = was

    def call(self, name: str, fn, *args, **kwargs):
        """Record fn as one span of the benchmark's own, e.g. one user op."""
        with self.recording():
            return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("linkstate.cli")  # binds statetree functions too
        importlib.import_module("linkstate.sync.socket_transport")
        modules = _linkstate_modules()
        for name, target, size in FUNCTIONS:
            modname, attr = target.split(":")
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, target, size in METHODS:
            modname, path = target.split(":")
            cname, attr = path.split(".")
            cls = getattr(sys.modules[modname], cname)
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr], size))

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost calls, inclusive ms, self ms, summed size."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "size": 0})
        for sid, name, start, end, _, size in self.spans:
            row = out[name]
            row["calls"] += 1
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns.get(sid, 0)) / 1e6
            row["size"] += size
        return dict(out)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for span in sorted(self.spans):
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def recording(self):
        return contextlib.nullcontext()
