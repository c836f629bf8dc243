"""Dynamically created objects: class registry, hash map, local/global wrapper.

Applying an entry list to a LinkableHashMap is deserialize-by-mutation:
entries are created, retargeted, updated, reordered and (depending on the
remove-missing flag) disposed so the map converges to the given state. The
map is the only object that creates or destroys children at runtime, which is
what makes whole session trees reconstructible from plain data.

Both containers read a state with statetree._entry_diff, the one reader of
entry lists and entry diffs, and read [] as no items. Any other state is
ignored whole, with one warning: so is a list with a single element that is
neither an entry item nor an order marker alone. The map reads a state over
its own snapshot: one that names every child in its place, one item each
(the common diff: one edit, an undo, a remote message), is read in place,
so only the items that are not a bare mention are parsed and applied, and
nothing moves or goes. Any other state without an order marker that still
mentions every child in its place builds no reorder or removal list
either. A snapshot rebuilt for changed children alone keeps the names of
the last one, so it shares that list's mention list (statetree).

LinkableDynamicObject wraps at most one object and serializes as a one-entry
entry list: an anonymous entry with an inline state in local mode, or a
named reference entry (empty class, null state) pointing at an entry of the
root hash map in global mode.
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
from .linkable import LinkableObject
from .statetree import (
    CLASS_NAME_KEY,
    OBJECT_NAME_KEY,
    SESSION_STATE_KEY,
    _IN_PLACE,
    EntryItem,
    _entry_diff,
    _differing,
    _EntryList,
    _in_place_copy,
    _paired,
)

log = logging.getLogger(__name__)


def _in_child_order(mentioned: dict[str, bool], children: dict) -> bool:
    """Whether the mentioned names are exactly the children, in their order."""
    return len(mentioned) == len(children) and list(mentioned) == list(children)


def _adopts_entry(e: dict, k: dict, child: LinkableObject | None) -> bool:
    """Whether the kept entry k is the snapshot entry e (the same keys, name
    and class) with a state that child, the object behind e, adopts; a
    reference entry (child None) holds no state."""
    if e is k:
        return True
    if k.keys() != e.keys() or k[OBJECT_NAME_KEY] != e[OBJECT_NAME_KEY] or k[CLASS_NAME_KEY] != e[CLASS_NAME_KEY]:
        return False
    return k[SESSION_STATE_KEY] is None if child is None else child._adopt(k[SESSION_STATE_KEY])


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
        if len(set(names)) != len(names) or any(n not in self._children for n in names):
            raise InvalidPermutation(f"{names!r} is not a subset permutation of {list(self._children)!r}")
        head = set(names)
        desired = names + [n for n in self._children if n not in head]
        if desired != list(self._children):
            self._children = {n: self._children[n] for n in desired}
            self.callbacks.trigger()

    # -- session state -------------------------------------------------------------

    # An attribute of each class, so the benchmark's tracer can wrap it per class.
    get_session_state = LinkableObject.get_session_state

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

    def _adopt(self, state) -> bool:
        # A kept list with the same names in the same order pairs up with the
        # snapshot; only the entries that are not the kept ones are looked at.
        snap = self._snapshot()
        if snap is state:
            return True
        if snap:
            m = _paired(state, snap)
            if m is None or not all(
                _adopts_entry(snap[i], state[i], self._children[m[i][OBJECT_NAME_KEY]])
                for i in _differing(snap, state)
            ):
                return False
        elif state != []:
            return False
        self._last = state
        self._fill(state)
        return True

    def set_session_state(self, state, remove_missing: bool = True) -> None:
        self._check_live()
        parsed = ([], None) if state == [] else _entry_diff(state, self._snapshot())
        if parsed is None:
            log.warning("LinkableHashMap: ignoring a state that is no entry list: %r", type(state).__name__)
            return
        self._set_items(*parsed, remove_missing)

    def _set_items(self, items: list | dict, order: list | str | None, remove_missing: bool) -> None:
        """Apply parsed entry items (see statetree._entry_diff). Items read
        in place must have been read over this map's snapshot, or over a
        list with the same names in the same order."""
        self.callbacks.delay()
        try:
            in_place = order is _IN_PLACE
            mentioned: dict[str, bool] = {}
            for it in items.values() if in_place else items:
                if type(it) is str:  # a named pure mention
                    if it in self._children:
                        mentioned[it] = True
                    else:
                        log.debug("LinkableHashMap: mention of unknown entry %r ignored", it)
                    continue
                if it.removed:
                    if it.name in self._children:
                        self.remove_object(it.name)
                    continue
                if not it.name:
                    log.warning("LinkableHashMap: ignoring anonymous entry")
                    continue
                if it.has_class_key and it.class_name:
                    if not self._registry.has(it.class_name):
                        log.warning(
                            "LinkableHashMap: skipping entry %r of unknown class %r",
                            it.name,
                            it.class_name,
                        )
                        continue
                    obj = self.request_object(it.name, it.class_name)
                elif it.name in self._children:
                    obj = self._children[it.name]
                else:
                    log.debug("LinkableHashMap: mention of unknown entry %r ignored", it.name)
                    continue
                mentioned[it.name] = True
                if it.has_state:
                    obj.set_session_state(it.state, remove_missing)
            if in_place:
                # Every child is named in its place; one whose item was
                # skipped above counts as unmentioned, as in a full read.
                skipped = {it.name for it in items.values()}.difference(mentioned)
                if not skipped:
                    return
                mentioned = dict.fromkeys(n for n in self._children if n not in skipped)
                order = None
            if order is None and _in_child_order(mentioned, self._children):
                return  # every child mentioned, in its place: nothing moves or goes
            if order is not None:
                known = [n for n in order if n in self._children]
                head = set(known)
                desired = known + [n for n in self._children if n not in head]
            else:
                desired = [n for n in mentioned if n in self._children]
                desired += [n for n in self._children if n not in mentioned]
            if desired != list(self._children):
                self._children = {n: self._children[n] for n in desired}
                self.callbacks.trigger()
            if remove_missing:
                for name in [n for n in self._children if n not in mentioned]:
                    self.remove_object(name)
        finally:
            self.callbacks.resume()

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

    def _build_snapshot(self) -> list:
        if self._local_class:
            target = self._children[self._TARGET]
            return _EntryList(
                [{OBJECT_NAME_KEY: "", CLASS_NAME_KEY: self._local_class, SESSION_STATE_KEY: target._snapshot()}]
            )
        if self._global_name:
            return _EntryList([{OBJECT_NAME_KEY: self._global_name, CLASS_NAME_KEY: "", SESSION_STATE_KEY: None}])
        return _EntryList()

    def _adopt(self, state) -> bool:
        snap = self._snapshot()
        if snap is state:
            return True
        if snap:
            target = self._children[self._TARGET] if self._local_class else None
            if type(state) is not _EntryList or len(state) != 1 or not _adopts_entry(snap[0], state[0], target):
                return False
        elif state != []:
            return False
        self._fill(state)
        return True

    def set_session_state(self, state, remove_missing: bool = True) -> None:
        self._check_live()
        parsed = ([], None) if state == [] else _entry_diff(state)
        if parsed is None:
            log.warning("LinkableDynamicObject: ignoring a state that is no entry list: %r", type(state).__name__)
            return
        items = parsed[0]
        self.callbacks.delay()
        try:
            if not items:
                if remove_missing:
                    self.remove_object()
                return
            for it in items:
                if type(it) is str:
                    it = EntryItem(it)
                if it.removed:
                    if (not it.name and self._local_class) or (it.name and it.name == self._global_name):
                        self.remove_object()
                    continue
                if it.name:
                    try:
                        obj = self.request_global_object(it.name)
                    except NoRoot as e:
                        log.warning("LinkableDynamicObject: %s", e)
                        continue
                    if it.has_state and obj is not None:
                        obj.set_session_state(it.state, remove_missing)
                elif it.has_class_key and it.class_name:
                    try:
                        obj = self.request_local_object(it.class_name)
                    except UnknownClass as e:
                        log.warning("LinkableDynamicObject: %s", e)
                        continue
                    if it.has_state:
                        obj.set_session_state(it.state, remove_missing)
                elif self._local_class and it.has_state:
                    # Anonymous mention: partial update of the current object.
                    self._children[self._TARGET].set_session_state(it.state, remove_missing)
        finally:
            self.callbacks.resume()

    def dispose(self) -> None:
        if self._disposed:
            return
        self._clear()
        super().dispose()
