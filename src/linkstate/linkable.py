"""Linkable objects: observable session-state tree nodes.

A LinkableObject owns a CallbackCollection and an ordered set of named child
objects. Its implicit session state is the Mapping of child states; a
LinkableVariable instead holds an explicit state value verified by an
optional predicate.

Applying a session state is merge-style everywhere: Mappings apply key-wise,
unknown keys are ignored with a diagnostic (forward compatibility), and
anything else replaces. A whole composite application runs under
delay/resume, so observers see at most one effective trigger.

Every object caches its state as a plain snapshot (statetree's plain form)
in its callback collection's cache slot. A snapshot is built from the
children's snapshots, so an unchanged subtree is the same object in every
snapshot that contains it, and it is never mutated. Any state change
triggers the object's callbacks, which drops the cached snapshots of the
object and its ancestors and notes, on each ancestor, which child's went
stale; the next read rebuilds only that path, and a hash map copies its
last entry list and re-reads only the noted children. Classes say how to
build their snapshot in _build_snapshot(); the public get_session_state()
is a fresh copy of it. The entry lists in a snapshot are statetree's
trusted built lists (_EntryList): whatever diffs or applies over a
snapshot, or over a value an apply built from one, checks no entry shape.

An object can also adopt a plain state its snapshot matches (_adopt): the
history hands the root the state it keeps at the cursor after an undo,
redo or jump. Adoption walks only the subtrees whose snapshot is not the
kept one, compares values at the leaves, and fills the caches bottom-up
with the kept objects (a variable takes the kept value even where its keys
are in another order), so the live snapshots join the log's lineage and
later diffs against kept states compare by identity. It triggers nothing
and changes no kept state: the live state is the same, only shared.
"""

from __future__ import annotations

import logging
from typing import Any, Callable

from .callbacks import STALE, CallbackCollection, FrameScheduler
from .errors import CycleDetected, Disposed, DuplicateName, TypeMismatch
from .statetree import (
    REMOVED_MARKER,
    VALUE_MARKER,
    StateNode,
    _apply,
    _plain_equivalent,
    to_plain,
)

log = logging.getLogger(__name__)


class LinkableObject:
    """Composite session-state node; subclasses register children in __init__."""

    def __init__(self, scheduler: FrameScheduler | None = None):
        self.callbacks = CallbackCollection(scheduler)
        self._children: dict[str, LinkableObject] = {}
        self._parents: list[LinkableObject] = []
        self._disposed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def disposed(self) -> bool:
        return self._disposed

    @property
    def scheduler(self) -> FrameScheduler:
        return self.callbacks.scheduler

    def _check_live(self) -> None:
        if self._disposed:
            raise Disposed(f"operation on a disposed {type(self).__name__}")

    def dispose(self) -> None:
        """Detach from parents, dispose registered children, kill callbacks."""
        if self._disposed:
            return
        self._disposed = True
        for parent in list(self._parents):
            parent._remove_child_object(self)
        self._parents.clear()
        for child in list(self._children.values()):
            if self in child._parents:
                child._parents.remove(self)
            child.dispose()
        self._children.clear()
        self.callbacks.dispose()

    # -- structure ---------------------------------------------------------------

    def register_linkable_child(self, name: str, child: "LinkableObject") -> "LinkableObject":
        """Attach child under name. The child's triggers bubble here, and the
        registration itself triggers this object's callbacks (its state now
        has one more key). Returns the child for assignment chaining."""
        self._check_live()
        if not name or not isinstance(name, str):
            raise ValueError("child name must be a non-empty string")
        if name in self._children:
            raise DuplicateName(f"child {name!r} already registered")
        if child is self or self._reachable_from(child):
            raise CycleDetected(f"registering {name!r} would close an ownership cycle")
        self._children[name] = child
        child._parents.append(self)
        child.callbacks._add_parent(self.callbacks)
        child._adopt_scheduler(self.callbacks.scheduler)
        self.callbacks.trigger()
        return child

    def get_linkable_child(self, name: str) -> "LinkableObject | None":
        return self._children.get(name)

    def child_names(self) -> list[str]:
        return list(self._children)

    def _reachable_from(self, node: "LinkableObject") -> bool:
        seen = set()
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur is self:
                return True
            if id(cur) in seen:
                continue
            seen.add(id(cur))
            stack.extend(cur._children.values())
        return False

    def _remove_child_object(self, child: "LinkableObject") -> None:
        """Called when a registered child is disposed out from under us."""
        if self._disposed:
            return
        for name, obj in list(self._children.items()):
            if obj is child:
                del self._children[name]
                # The hook notifies observers at once, before the trigger
                # below, so they must not read the cached snapshot.
                self.callbacks._drop_cache()
                self._on_child_removed(name, child)
                self.callbacks.trigger()
                return

    def _on_child_removed(self, name: str, child: "LinkableObject") -> None:
        """Subclass hook (hash maps notify their child-list observers)."""

    def _adopt_scheduler(self, scheduler: FrameScheduler) -> None:
        # One tree, one scheduler: registration pulls the whole subtree onto
        # the parent's scheduler so frame flushes stay coherent.
        if self.callbacks.scheduler is scheduler:
            return
        self.callbacks._set_scheduler(scheduler)
        for extra in self._extra_collections():
            extra._set_scheduler(scheduler)
        for child in self._children.values():
            child._adopt_scheduler(scheduler)

    def _extra_collections(self) -> list[CallbackCollection]:
        return []

    # -- session state ----------------------------------------------------------------

    def get_session_state(self) -> StateNode:
        """Fresh copy of the state; shares no mutable structure."""
        self._check_live()
        return to_plain(self._snapshot())

    def _snapshot(self) -> Any:
        """The cached plain state. Shared and never mutated: callers read it
        and must copy before changing anything."""
        cache = self.callbacks
        snap = cache._cache
        if snap is STALE:
            snap = cache._cache = self._build_snapshot()
            cache._stale_children = ()
        return snap

    def _build_snapshot(self) -> Any:
        return {name: child._snapshot() for name, child in self._children.items()}

    def _adopt(self, state: Any) -> bool:
        """Make the plain state the cached snapshot where the live state
        matches it; True when the snapshot now is state. A partial adoption
        (False) leaves each cache holding a state equal to its object's."""
        snap = self._snapshot()
        if snap is state:
            return True
        children = self._children
        if type(state) is not dict or list(state) != list(children):
            return False
        for name, child in children.items():
            sub = state[name]
            if snap[name] is not sub and not child._adopt(sub):
                return False
        self._fill(state)
        return True

    def _fill(self, state: Any) -> None:
        # Every child's cache already holds its part of state.
        cache = self.callbacks
        cache._cache = state
        cache._stale_children = ()

    def set_session_state(self, state: Any, remove_missing: bool = True) -> None:
        """Apply a full or partial state. Unknown keys are ignored with a
        diagnostic; a non-Mapping where a composite lives is ignored too."""
        self._check_live()
        self.callbacks.delay()
        try:
            self._apply_state(state, remove_missing)
        finally:
            self.callbacks.resume()

    def _apply_state(self, state: Any, remove_missing: bool) -> None:
        if not isinstance(state, dict):
            log.warning("%s: ignoring non-Mapping state %r", type(self).__name__, type(state).__name__)
            return
        if set(state) == {VALUE_MARKER}:
            self._apply_state(state[VALUE_MARKER], remove_missing)
            return
        for key, sub in state.items():
            if isinstance(sub, dict) and sub.get(REMOVED_MARKER) is True:
                log.debug("%s: ignoring removal of fixed child %r", type(self).__name__, key)
                continue
            child = self._children.get(key)
            if child is None:
                log.debug("%s: ignoring unknown state key %r", type(self).__name__, key)
                continue
            child.set_session_state(sub, remove_missing)


class LinkableVariable(LinkableObject):
    """A leaf (or document-valued) state holder with an optional verifier.

    A value rejected by the verifier, or one that is no state tree (say a
    non-finite number or a repeated entry name), is dropped silently: the
    old value stays, last_verify_failed flips on, and a diagnostic is
    logged. Callbacks trigger only when the stored value actually changes.
    The value is kept canonical (statetree.to_plain) and never mutated, so
    it is its own snapshot.
    """

    def __init__(
        self,
        default: StateNode = None,
        verifier: Callable[[StateNode], bool] | None = None,
        scheduler: FrameScheduler | None = None,
    ):
        super().__init__(scheduler)
        self._verifier = verifier
        self._last_verify_failed = False
        value = to_plain(default)  # raises on anything that is not a state tree
        if not self._accepts(default):
            raise ValueError(f"default value {default!r} fails the verifier")
        self._value = value

    @property
    def last_verify_failed(self) -> bool:
        return self._last_verify_failed

    def _type_ok(self, value: StateNode) -> bool:
        return True

    def _accepts(self, value: StateNode) -> bool:
        if value is not None and not self._type_ok(value):
            return False
        return self._verifier is None or bool(self._verifier(value))

    def check_value(self, value: StateNode) -> None:
        """Explicit validation: raises TypeMismatch instead of silent drop."""
        if not self._accepts(value):
            raise TypeMismatch(f"{type(self).__name__} rejects {value!r}")

    def get_state(self) -> StateNode:
        self._check_live()
        return to_plain(self._value)

    def set_state(self, value: StateNode) -> None:
        """Merge-apply value onto the current state (Mappings merge key-wise,
        everything else replaces) and trigger when the result differs."""
        self.set_session_state(value)

    get_session_state = get_state

    def _build_snapshot(self) -> Any:
        return self._value

    def _adopt(self, state: Any) -> bool:
        # An equivalent kept value is taken as it is, key order included.
        if self._value is not state:
            if not _plain_equivalent(self._value, state):
                return False
            self._value = state
        self._fill(state)
        return True

    def set_session_state(self, state: Any, remove_missing: bool = True) -> None:
        self._check_live()
        try:
            new_value = to_plain(_apply(self._value, state, remove_missing))
        except (TypeError, ValueError) as e:
            log.warning("%s: dropping invalid state: %s", type(self).__name__, e)
            self._last_verify_failed = True
            return
        if not self._accepts(new_value):
            log.warning("%s: verifier rejected %r", type(self).__name__, new_value)
            self._last_verify_failed = True
            return
        self._last_verify_failed = False
        if _plain_equivalent(self._value, new_value):
            return
        self._value = new_value
        self.callbacks.trigger()

    def dispose(self) -> None:
        if not self._disposed:
            self._value = None
            super().dispose()


class LinkableString(LinkableVariable):
    def _type_ok(self, value):
        return isinstance(value, str)


class LinkableNumber(LinkableVariable):
    def _type_ok(self, value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)


class LinkableBoolean(LinkableVariable):
    def _type_ok(self, value):
        return isinstance(value, bool)
