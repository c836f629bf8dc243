"""Linkable objects: observable session-state tree nodes.

A LinkableObject owns a CallbackCollection and an ordered set of named child
objects. Its implicit session state is the Mapping of child states; a
LinkableVariable instead holds an explicit state value verified by an
optional predicate.

Applying a session state is one walk for every class: set_session_state
computes the target with the value-level apply over the object's snapshot
(statetree._apply: Mappings merge key-wise, anything else replaces), and
the object reaches it (_reach). Nothing else reads a state or a diff into
live objects: the history, the sync client and a link hand a root the
state to reach. A whole composite application runs under delay/resume, so
observers see at most one effective trigger.

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

A reach walks only the subtrees whose snapshot is not the target's part.
Every container reaches the same way (LinkableObject._reach): the identity
shortcut, one delay/resume around its walk, and a fill of its slot with the
target when the walk says the target shows. A container class supplies only
_reach_parts: its refusal of a target of the wrong type, its walk, and
whether the target now shows. A composite reaches each child the target has
a key for and leaves the others alone (unknown keys are ignored: forward
compatibility); the hash map and the wrapper are in dynamic. A variable, the
leaf, reaches on its own: it checks the target's canonical copy with its
verifier, triggers only when the value changes, keeps the target object
itself where it is canonical, and fills its slot with its value even where
that is not the target. Caches fill bottom-up with the target's own
objects, so a reached tree's snapshot is its target: the history hands the
root the state it keeps at the cursor, the sync client the state it
shares and a link the other endpoint's snapshot, and the next diff or copy
against either compares by identity. Callbacks run at every nested resume
and may change a subtree already reached, so a level fills its own slot,
before its resume, only where each child's slot holds its part; otherwise
the slot stays empty and the next read rebuilds it.
"""

from __future__ import annotations

import logging
from operator import attrgetter, is_
from typing import Any, Callable

from .callbacks import STALE, CallbackCollection, FrameScheduler
from .errors import CycleDetected, Disposed, DuplicateName, TypeMismatch
from .statetree import StateNode, _apply, _plain_equivalent, encode_diff, to_plain

log = logging.getLogger(__name__)

_cached = attrgetter("callbacks._cache")  # an object's cache slot, STALE when empty


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

    def set_session_state(self, state: Any, remove_missing: bool = True) -> None:
        """Apply a full or partial state: the value-level apply over the
        snapshot gives the target, and the object reaches it (_reach). A
        state that is no state tree, or would repeat an entry name, is
        dropped whole with a diagnostic."""
        self._check_live()
        try:
            target = _apply(self._snapshot(), state, remove_missing)
        except (TypeError, ValueError) as e:
            self._refuse(f"dropping invalid state: {e}")
            return
        self._reach(target)

    def _reach(self, target: Any) -> bool:
        """Bring the live object to the plain target state; True when its
        snapshot now is target. The container walks its parts under one
        delay/resume (_reach_parts) and fills its slot with target when
        they show it."""
        snap = self._snapshot()
        if snap is target:
            return True
        self.callbacks.delay()
        try:
            reached = self._reach_parts(snap, target)
            if reached:
                self._fill(target)
            return reached
        finally:
            self.callbacks.resume()

    def _reach_parts(self, snap: Any, target: Any) -> bool:
        """Reach each child the target has a key for and leave the others
        alone; a non-Mapping target is ignored with a diagnostic. True when
        every child's slot holds its part of target: a callback may have
        changed a child already reached."""
        if type(target) is not dict:
            return self._refuse(f"ignoring non-Mapping state {type(target).__name__!r}")
        children = self._children
        for (name, child), part in zip(children.items(), snap.values()):
            sub = target.get(name, part)
            if sub is not part:
                child._reach(sub)
        return list(target) == list(children) and all(map(is_, map(_cached, children.values()), target.values()))

    def _fill(self, state: Any) -> None:
        # Every child's cache already holds its part of state.
        cache = self.callbacks
        cache._cache = state
        cache._stale_children = ()

    def _refuse(self, why: str) -> bool:
        log.warning("%s: %s", type(self).__name__, why)
        return False


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

    def set_state(self, value: StateNode) -> None:
        """Merge-apply value onto the current state (Mappings merge key-wise,
        everything else replaces) and trigger when the result differs."""
        self.set_session_state(value)

    # Attributes of each class, so the benchmark's tracer can wrap them per
    # class; get_state is the same read under the variable's own name.
    get_state = get_session_state = LinkableObject.get_session_state
    set_session_state = LinkableObject.set_session_state

    def _build_snapshot(self) -> Any:
        return self._value

    def _reach(self, target: Any) -> bool:
        # The target is checked through its canonical copy and kept itself
        # where it is canonical already, so the snapshot can be the target.
        # An equivalent value (maybe keyed in another order) replaces the
        # old one without a trigger; the caches above keep a state equal
        # to it until the parent fills its own slot.
        old = value = self._value
        if old is not target:
            try:
                value = to_plain(target)
            except (TypeError, ValueError) as e:
                return self._refuse(f"dropping invalid state: {e}")
            if not self._accepts(value):
                return self._refuse(f"verifier rejected {value!r}")
            if value is not target and encode_diff(value) == encode_diff(target):
                value = target
        self._value = value
        self._last_verify_failed = False
        if old is not value and not _plain_equivalent(old, value):
            self.callbacks.trigger()
        self._fill(self._value)
        return self._value is target

    def _refuse(self, why: str) -> bool:
        self._last_verify_failed = True
        return super()._refuse(why)

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
