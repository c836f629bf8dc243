"""Two-way state linking between objects, and variable-to-external bridging.

A link keeps two endpoints state-equivalent: on trigger the other endpoint
reaches the source's cached snapshot (linkable._reach), the one way a state
reaches live objects. The far end then holds the source's snapshot objects
themselves, so the next copy finds every unchanged subtree by identity and
walks only the one an edit replaced: a link costs what changed, not the
whole tree, and computes no diff. Where the far end takes every value (no
verifier refuses one), the endpoints end byte-identical, key order
included. Echo is cut two ways: a copy in flight suppresses the link's
own reaction on the other side, and a copy to an endpoint that already holds
the source's snapshot returns at once, while one to an equivalent endpoint
triggers nothing. Together these bound propagation (at most two effective
triggers per endpoint per edit in a chain of two links) without any state
version counters.

Both kinds of link share one `Link`. It refuses a pair with a disposed
endpoint, an object linked to itself or a pair already linked, before it
adds anything. It owns the echo guard, which runs before a copy reads
either side and skips it while a copy is in flight or an endpoint is
disposed, and the (collection, handle) pair of every callback it added,
which unlink() detaches. A link kind supplies only each direction's copy.
"""

from __future__ import annotations

from typing import Callable

from .callbacks import CallbackCollection, CallbackEntry
from .errors import AlreadyUnlinked, DuplicateLink, SelfLink
from .linkable import LinkableObject, LinkableVariable
from .statetree import StateNode, state_equivalent


class Link:
    """Active two-way link; call unlink() to detach both callbacks."""

    def __init__(self, a, b):
        for end in (a, b):
            end._check_live()
        if a is b:
            raise SelfLink("an object cannot be linked to itself")
        for link in getattr(a, "_active_links", []):
            if link.connects(a, b):
                raise DuplicateLink("these endpoints are already linked")
        self._endpoints = (a, b)
        self._callbacks: list[tuple[CallbackCollection, CallbackEntry]] = []
        self._copying = False
        self.active = True
        for end in (a, b):
            if not hasattr(end, "_active_links"):
                end._active_links = []
            end._active_links.append(self)

    def connects(self, x, y) -> bool:
        a, b = self._endpoints
        return (a is x and b is y) or (a is y and b is x)

    def unlink(self) -> None:
        if not self.active:
            raise AlreadyUnlinked("link was already removed")
        self.active = False
        for collection, handle in self._callbacks:
            if not collection.disposed:
                collection.remove_callback(handle)
        for end in self._endpoints:
            end._active_links.remove(self)

    def _on(self, collection: CallbackCollection, copy: Callable[[], None]) -> None:
        """Run copy, guarded, whenever collection triggers."""
        handle = collection.add_immediate_callback(lambda: self._copy(copy))
        self._callbacks.append((collection, handle))

    def _copy(self, copy: Callable[[], None]) -> None:
        a, b = self._endpoints
        if self._copying or a.disposed or b.disposed:
            return
        self._copying = True
        try:
            copy()
        finally:
            self._copying = False


def _copy_state(src: LinkableObject, dst: LinkableObject) -> None:
    # dst reaches the source's snapshot object itself: after the copy the
    # two endpoints share every subtree, and the next copy walks the edit.
    dst._reach(src._snapshot())


def link_session_state(primary: LinkableObject, secondary: LinkableObject) -> Link:
    """Keep two linkable objects state-equivalent; the secondary adopts the
    primary's state at link time."""
    link = Link(primary, secondary)
    link._on(primary.callbacks, lambda: _copy_state(primary, secondary))
    link._on(secondary.callbacks, lambda: _copy_state(secondary, primary))
    link._copy(lambda: _copy_state(primary, secondary))
    return link


def link_external_property(
    variable: LinkableVariable,
    getter: Callable[[], StateNode],
    setter: Callable[[StateNode], None],
    notify: CallbackCollection,
) -> Link:
    """Two-way bridge between a variable and an external property.

    notify is triggered by the external side whenever its property changed;
    the external side adopts the variable's state at link time.
    """
    link = Link(variable, notify)

    def var_changed() -> None:
        value = variable.get_state()
        if not state_equivalent(value, getter()):
            setter(value)

    def external_changed() -> None:
        value = getter()
        if not state_equivalent(value, variable.get_state()):
            variable.set_state(value)

    link._on(variable.callbacks, var_changed)
    link._on(notify, external_changed)
    link._copy(lambda: setter(variable.get_state()))
    return link
