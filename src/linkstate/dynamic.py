"""Dynamically created objects: class registry, hash map, local/global wrapper.

A LinkableHashMap reaches an entry-list target (linkable._reach) by
mutation: entries are created, retargeted, updated, reordered and disposed
so the map holds the target. The map is the only object that creates or
destroys children at runtime, which is what makes whole session trees
reconstructible from plain data. A target whose names pair with the
snapshot's (the common apply: one edit, an undo, a remote message) is
reached at the positions whose entries are not the snapshot's, found with
one C-level identity pass; any other goes by name: removals first, then
creations and reaches in target order, a created child taking its entry's
state whole rather than merged into its defaults, then one reorder. An
entry the map cannot hold (an anonymous one, a reference, a class the
registry lacks) leaves no child, and the map's snapshot is then not the
target. A state that is no entry list is ignored whole, with one warning,
and [] holds no entries. A snapshot rebuilt for changed children alone
keeps the names of the last one, so it shares that list's mention list
(statetree).

LinkableDynamicObject wraps at most one object and serializes as a one-entry
entry list: an anonymous entry with an inline state in local mode, or a
named reference entry (empty class, null state) pointing at an entry of the
root hash map in global mode. It reaches [], one such entry, or the first
of several (a merge can give two), with a diagnostic for the rest.
"""

from __future__ import annotations

import logging
from typing import Callable

from .callbacks import CallbackCollection, FrameScheduler
from .errors import (
    DuplicateClass,
    InvalidPermutation,
    NameRequired,
    NoRoot,
    UnknownClass,
    UnknownName,
)
from .linkable import LinkableObject, _cached
from .statetree import (
    CLASS_NAME_KEY,
    OBJECT_NAME_KEY,
    SESSION_STATE_KEY,
    _differing,
    _EntryList,
    _in_place_copy,
    _paired,
)

log = logging.getLogger(__name__)


def _shows(e: dict, name: str, cls: str, state) -> bool:
    """Whether e is the entry a snapshot builds for the object called name,
    of class cls, whose snapshot is state."""
    return len(e) == 3 and e[OBJECT_NAME_KEY] == name and e[CLASS_NAME_KEY] == cls and e[SESSION_STATE_KEY] is state


class ClassRegistry:
    """Maps class names to zero-argument factories of LinkableObjects."""

    def __init__(self):
        self._factories: dict[str, Callable[[], LinkableObject]] = {}

    def register(self, class_name: str, factory: Callable[[], LinkableObject]) -> None:
        if not class_name or not isinstance(class_name, str):
            raise ValueError("class name must be a non-empty string")
        if class_name in self._factories:
            raise DuplicateClass(f"class {class_name!r} already registered")
        self._factories[class_name] = factory

    def has(self, class_name: str) -> bool:
        return class_name in self._factories

    def class_names(self) -> list[str]:
        return list(self._factories)

    def create(self, class_name: str) -> LinkableObject:
        factory = self._factories.get(class_name)
        if factory is None:
            raise UnknownClass(f"no factory for class {class_name!r}")
        obj = factory()
        if not isinstance(obj, LinkableObject):
            raise TypeError(f"factory for {class_name!r} returned {type(obj).__name__}")
        return obj


class LinkableHashMap(LinkableObject):
    """Ordered map of named, dynamically created children.

    Observers of `callbacks` see state changes as usual; observers of
    `child_list_callbacks` get an immediate (never delayed) notification per
    addition or removal, with the affected entry in last_object_added /
    last_object_removed.
    """

    def __init__(self, registry: ClassRegistry, scheduler: FrameScheduler | None = None):
        super().__init__(scheduler)
        self._registry = registry
        self._classes: dict[str, str] = {}
        self._last: list = []  # the last snapshot built
        self._slots: dict[CallbackCollection, int] = {}  # child collection -> its index there
        self.child_list_callbacks = CallbackCollection(self.callbacks.scheduler)
        self.last_object_added: tuple[str, LinkableObject] | None = None
        self.last_object_removed: tuple[str, LinkableObject] | None = None

    @property
    def registry(self) -> ClassRegistry:
        return self._registry

    def _extra_collections(self) -> list[CallbackCollection]:
        return [self.child_list_callbacks]

    # -- entry access ---------------------------------------------------------

    def get_names(self) -> list[str]:
        self._check_live()
        return list(self._children)

    def get_object(self, name: str) -> LinkableObject:
        self._check_live()
        obj = self._children.get(name)
        if obj is None:
            raise UnknownName(f"no entry named {name!r}")
        return obj

    def get_class_name(self, name: str) -> str:
        self._check_live()
        if name not in self._classes:
            raise UnknownName(f"no entry named {name!r}")
        return self._classes[name]

    # -- mutation ----------------------------------------------------------------

    def request_object(self, name: str, class_name: str) -> LinkableObject:
        """Get-or-create the entry. An existing entry of the same class is
        returned untouched; a different class disposes the old object and
        creates a fresh one at the same position."""
        self._check_live()
        if not name or not isinstance(name, str):
            raise NameRequired("hash map entries need a non-empty name")
        existing = self._children.get(name)
        if existing is not None and self._classes.get(name) == class_name:
            return existing
        obj = self._registry.create(class_name)  # may raise UnknownClass
        self.callbacks.delay()
        try:
            position = None
            if existing is not None:
                position = list(self._children).index(name)
                existing.dispose()
            self.register_linkable_child(name, obj)
            if position is not None:
                order = list(self._children)
                order.remove(name)
                order.insert(position, name)
                self._children = {n: self._children[n] for n in order}
            self._classes[name] = class_name
        finally:
            self.callbacks.resume()
        self.last_object_added = (name, obj)
        self.child_list_callbacks.trigger()
        return obj

    def remove_object(self, name: str) -> None:
        self._check_live()
        obj = self._children.get(name)
        if obj is None:
            raise UnknownName(f"no entry named {name!r}")
        obj.dispose()  # detaches via _remove_child_object, which notifies

    def _on_child_removed(self, name: str, child: LinkableObject) -> None:
        self._classes.pop(name, None)
        self.last_object_removed = (name, child)
        self.child_list_callbacks.trigger()

    def set_name_order(self, names: list[str]) -> None:
        """Put names first, in the given order; the rest keep relative order."""
        self._check_live()
        names = list(names)
        head = set(names)
        if len(head) != len(names) or not head <= self._children.keys():
            raise InvalidPermutation(f"{names!r} is not a subset permutation of {list(self._children)!r}")
        desired = names + [n for n in self._children if n not in head]
        if desired != list(self._children):
            self._children = {n: self._children[n] for n in desired}
            self.callbacks.trigger()

    # -- session state -------------------------------------------------------------

    # Attributes of each class, so the benchmark's tracer can wrap them per class.
    get_session_state = LinkableObject.get_session_state
    set_session_state = LinkableObject.set_session_state

    def _build_snapshot(self) -> list:
        # An entry whose child snapshot is unchanged is the same dict as in
        # the last snapshot, so diffs skip it with one identity check. When
        # only children changed (the map's own collection did not trigger:
        # no entry came, went or moved), the last list is copied and only
        # the entries of those children are looked at. A noted collection
        # without a slot belongs to a child already removed (a child added
        # since the last full build triggers the map itself).
        stale = self.callbacks._stale_children
        if stale is not None:
            entries = _in_place_copy(self._last)
            for c in stale:
                i = self._slots.get(c)
                if i is None:
                    continue
                e = entries[i]
                name = e[OBJECT_NAME_KEY]
                state = self._children[name]._snapshot()
                if e[SESSION_STATE_KEY] is not state:
                    entries[i] = {OBJECT_NAME_KEY: name, CLASS_NAME_KEY: e[CLASS_NAME_KEY], SESSION_STATE_KEY: state}
        else:
            last = {e[OBJECT_NAME_KEY]: e for e in self._last}
            entries = _EntryList()
            for name, child in self._children.items():
                state = child._snapshot()
                cls = self._classes[name]
                e = last.get(name)
                if e is None or e[SESSION_STATE_KEY] is not state or e[CLASS_NAME_KEY] != cls:
                    e = {OBJECT_NAME_KEY: name, CLASS_NAME_KEY: cls, SESSION_STATE_KEY: state}
                entries.append(e)
            self._slots = {child.callbacks: i for i, child in enumerate(self._children.values())}
        self._last = entries
        return entries

    def _reach(self, target) -> bool:
        # A target paired with the snapshot (the same names in the same
        # places) is reached at the positions whose entries differ. Any
        # other goes by name: removals first, then creations and reaches in
        # target order, then one reorder. An entry the map cannot hold (an
        # anonymous one, a reference, a class the registry lacks) leaves no
        # child.
        snap = self._snapshot()
        if snap is target:
            return True
        if type(target) is not _EntryList and target != []:
            return self._refuse(f"ignoring a state that is no entry list: {type(target).__name__!r}")
        self.callbacks.delay()
        try:
            m = _paired(snap, target)
            if m is not None:
                at = _differing(snap, target)
                for i in at:
                    self._reach_entry(m[i][OBJECT_NAME_KEY], target[i])
            else:
                last = {e[OBJECT_NAME_KEY]: e for e in snap}
                held = {e[OBJECT_NAME_KEY]: e for e in target if last.get(e.get(OBJECT_NAME_KEY)) is e or self._holds(e)}
                gone = self._children.keys() - held.keys()
                for name in [n for n in self._children if n in gone]:
                    self.remove_object(name)
                for name, e in held.items():
                    if last.get(name) is not e:
                        self._reach_entry(name, e)
                if list(held) != list(self._children):
                    self.set_name_order([n for n in held if n in self._children])
            # A callback may have changed an entry already reached: fill the
            # slot only if every entry reached or noted stale shows its
            # child, all of them (a full build like target) once the map
            # itself triggered.
            noted = self.callbacks._stale_children
            if m is not None and noted is not None:
                look = set(at).union(map(self._slots.get, noted))
                look.discard(None)
                reached = all(self._shows_child(target[i], m[i][OBJECT_NAME_KEY]) for i in look)
            else:
                if m is not None:
                    held = {e[OBJECT_NAME_KEY]: e for e in target}
                children = self._children
                reached = (
                    len(held) == len(target)
                    and list(held) == list(children)
                    and all(map(_shows, held.values(), held, map(self._classes.get, held), map(_cached, children.values())))
                )
                if reached:
                    self._slots = {child.callbacks: i for i, child in enumerate(children.values())}
            if reached:
                self._last = target
                self._fill(target)
            return reached
        finally:
            self.callbacks.resume()

    def _holds(self, e: dict) -> bool:
        """Whether the map can hold the entry e: a named one of a registered class."""
        return bool(e.get(OBJECT_NAME_KEY)) and self._registry.has(e.get(CLASS_NAME_KEY, ""))

    def _reach_entry(self, name: str, e: dict) -> None:
        # A child of another class is replaced in its place; a created one
        # reaches the entry's state whole, not merged into its defaults.
        cls = e.get(CLASS_NAME_KEY, "")
        if cls != self._classes.get(name):
            if not self._holds(e):
                if name in self._children:
                    self.remove_object(name)
                return
            self.request_object(name, cls)
        self._children[name]._reach(e.get(SESSION_STATE_KEY))

    def _shows_child(self, e: dict, name: str) -> bool:
        return _shows(e, name, self._classes[name], _cached(self._children[name]))

    def dispose(self) -> None:
        if self._disposed:
            return
        super().dispose()
        self.child_list_callbacks.dispose()


class LinkableDynamicObject(LinkableObject):
    """Holder for at most one dynamically chosen object.

    Local mode owns a private instance created from the registry; global mode
    references an entry of the root hash map by name. A global reference may
    dangle (target absent); it resolves or re-resolves automatically as the
    root's entries come and go, triggering on every retarget.
    """

    _TARGET = "target"  # internal child key in local mode

    def __init__(self, registry: ClassRegistry, scheduler: FrameScheduler | None = None):
        super().__init__(scheduler)
        self._registry = registry
        self._local_class = ""
        self._global_name = ""
        self._global_target: LinkableObject | None = None
        self._root_watch: tuple[LinkableHashMap, object] | None = None

    # -- introspection -----------------------------------------------------------

    @property
    def local_class(self) -> str:
        return self._local_class

    @property
    def global_name(self) -> str:
        return self._global_name

    def get_object(self) -> LinkableObject | None:
        self._check_live()
        if self._local_class:
            return self._children.get(self._TARGET)
        return self._global_target

    # -- mode switches --------------------------------------------------------------

    def request_local_object(self, class_name: str) -> LinkableObject:
        """Own a private instance of class_name (reusing a same-class one)."""
        self._check_live()
        if self._local_class == class_name:
            return self._children[self._TARGET]
        obj = self._registry.create(class_name)  # may raise UnknownClass
        self.callbacks.delay()
        try:
            self._clear()
            self.register_linkable_child(self._TARGET, obj)
            self._local_class = class_name
        finally:
            self.callbacks.resume()
        return obj

    def request_global_object(self, name: str) -> LinkableObject | None:
        """Reference the root hash map entry called name; may dangle."""
        self._check_live()
        if not name or not isinstance(name, str):
            raise NameRequired("global references need a non-empty name")
        if self._global_name == name:
            return self._global_target
        root = self._find_root()
        self.callbacks.delay()
        try:
            self._clear()
            self._global_name = name
            handle = root.child_list_callbacks.add_immediate_callback(self._on_root_child_list)
            self._root_watch = (root, handle)
            self._rebind_target(root)
            self.callbacks.trigger()
        finally:
            self.callbacks.resume()
        return self._global_target

    def remove_object(self) -> None:
        self._check_live()
        if not self._local_class and not self._global_name:
            return
        self.callbacks.delay()
        try:
            self._clear()
            self.callbacks.trigger()
        finally:
            self.callbacks.resume()

    def _find_root(self) -> LinkableHashMap:
        node: LinkableObject = self
        while node._parents:
            node = node._parents[0]
        if node is self or not isinstance(node, LinkableHashMap):
            raise NoRoot("global mode needs this object attached under a hash map root")
        return node

    def _on_root_child_list(self) -> None:
        # Rebinding is identity-compared, so reacting to every child-list
        # event is safe regardless of which entry the event was about.
        if self._disposed or self._root_watch is None:
            return
        old = self._global_target
        self._rebind_target(self._root_watch[0])
        if self._global_target is not old:
            self.callbacks.trigger()

    def _rebind_target(self, root: LinkableHashMap) -> None:
        target = root._children.get(self._global_name)
        if target is self._global_target:
            return
        if self._global_target is not None and not self._global_target.callbacks.disposed:
            self._global_target.callbacks._remove_parent(self.callbacks)
        self._global_target = target
        if target is not None:
            target.callbacks._add_parent(self.callbacks)

    def _clear(self) -> None:
        if self._local_class:
            self._local_class = ""
            target = self._children.get(self._TARGET)
            if target is not None and not target.disposed:
                target.dispose()
        if self._global_name:
            if self._global_target is not None and not self._global_target.callbacks.disposed:
                self._global_target.callbacks._remove_parent(self.callbacks)
            self._global_target = None
            self._global_name = ""
        if self._root_watch is not None:
            root, handle = self._root_watch
            if not root.child_list_callbacks.disposed:
                root.child_list_callbacks.remove_callback(handle)
            self._root_watch = None

    def _on_child_removed(self, name: str, child: LinkableObject) -> None:
        if name == self._TARGET:
            self._local_class = ""

    # -- session state -----------------------------------------------------------------

    get_session_state = LinkableObject.get_session_state
    set_session_state = LinkableObject.set_session_state

    def _build_snapshot(self) -> list:
        if self._local_class:
            target = self._children[self._TARGET]
            return _EntryList(
                [{OBJECT_NAME_KEY: "", CLASS_NAME_KEY: self._local_class, SESSION_STATE_KEY: target._snapshot()}]
            )
        if self._global_name:
            return _EntryList([{OBJECT_NAME_KEY: self._global_name, CLASS_NAME_KEY: "", SESSION_STATE_KEY: None}])
        return _EntryList()

    def _reach(self, target) -> bool:
        # The wrapper holds [], one anonymous local entry or one named
        # reference, which carries no state. Of a target of two or more
        # entries (a merge over a slot whose entry changed) it takes the
        # first, the one the state named first, with a diagnostic.
        snap = self._snapshot()
        if snap is target:
            return True
        if type(target) is not _EntryList and target != []:
            return self._refuse(f"ignoring a state that is no entry list: {type(target).__name__!r}")
        if len(target) > 1:
            self._refuse(f"taking the first of {len(target)} entries")
        self.callbacks.delay()
        try:
            if not target:
                self.remove_object()
            elif name := target[0].get(OBJECT_NAME_KEY):
                try:
                    self.request_global_object(name)
                except NoRoot as e:
                    self._refuse(str(e))
            elif cls := target[0].get(CLASS_NAME_KEY):
                try:
                    self.request_local_object(cls)._reach(target[0].get(SESSION_STATE_KEY))
                except UnknownClass as e:
                    self._refuse(str(e))
            # As for a hash map: fill the slot only if the target shows what
            # a snapshot would, with the local object's own snapshot.
            built = self._build_snapshot()
            reached = len(built) == len(target) and all(
                _shows(t, b[OBJECT_NAME_KEY], b[CLASS_NAME_KEY], b[SESSION_STATE_KEY]) for b, t in zip(built, target)
            )
            if reached:
                self._fill(target)
            return reached
        finally:
            self.callbacks.resume()

    def dispose(self) -> None:
        if self._disposed:
            return
        self._clear()
        super().dispose()
