"""Two-way state linking between objects, and variable-to-external bridging.

A link keeps two endpoints state-equivalent: on trigger it diffs the
cached snapshots of the two and applies the diff to the other endpoint
(remove-missing, so the result is the source's state), which costs what
changed, not the whole tree. Echo is cut two ways: a copy in flight
suppresses the link's own reaction on the other side, and a would-be copy is
skipped outright when the diff is empty, i.e. the endpoint states are
already equivalent. Together these bound propagation (at
most two effective triggers per endpoint per edit in a chain of two links)
without any state version counters.
"""

from __future__ import annotations

import logging
from typing import Callable

from .callbacks import CallbackCollection
from .errors import AlreadyUnlinked, DuplicateLink, SelfLink
from .linkable import LinkableObject, LinkableVariable
from .statetree import StateNode, _diff_plain, is_empty_diff, state_equivalent

log = logging.getLogger(__name__)


class Link:
    """Active two-way link; call unlink() to detach both callbacks."""

    def __init__(self, a, b, detach: Callable[[], None]):
        self._endpoints = (a, b)
        self._detach = detach
        self._copying = False
        self.active = True

    def connects(self, x, y) -> bool:
        a, b = self._endpoints
        return (a is x and b is y) or (a is y and b is x)

    def unlink(self) -> None:
        if not self.active:
            raise AlreadyUnlinked("link was already removed")
        self.active = False
        self._detach()
        for end in self._endpoints:
            links = getattr(end, "_active_links", None)
            if links is not None and self in links:
                links.remove(self)


def _register_link(a, b, link: Link) -> None:
    for end in (a, b):
        if not hasattr(end, "_active_links"):
            end._active_links = []
        end._active_links.append(link)


def _check_linkable_pair(a, b) -> None:
    if a is b:
        raise SelfLink("an object cannot be linked to itself")
    for link in getattr(a, "_active_links", []):
        if link.active and link.connects(a, b):
            raise DuplicateLink("these endpoints are already linked")


def link_session_state(primary: LinkableObject, secondary: LinkableObject) -> Link:
    """Keep two linkable objects state-equivalent; the secondary adopts the
    primary's state at link time."""
    primary._check_live()
    secondary._check_live()
    _check_linkable_pair(primary, secondary)

    def copy(src: LinkableObject, dst: LinkableObject) -> None:
        if not link.active or link._copying:
            return
        if src.disposed or dst.disposed:
            return
        # The cached snapshots share every unchanged subtree, so the diff
        # walks only what changed since the endpoints last matched.
        d = _diff_plain(dst._snapshot(), src._snapshot())
        if is_empty_diff(d):
            return
        link._copying = True
        try:
            dst.set_session_state(d, remove_missing=True)
        finally:
            link._copying = False

    h_a = primary.callbacks.add_immediate_callback(lambda: copy(primary, secondary))
    h_b = secondary.callbacks.add_immediate_callback(lambda: copy(secondary, primary))

    def detach() -> None:
        if not primary.callbacks.disposed:
            primary.callbacks.remove_callback(h_a)
        if not secondary.callbacks.disposed:
            secondary.callbacks.remove_callback(h_b)

    link = Link(primary, secondary, detach)
    _register_link(primary, secondary, link)
    copy(primary, secondary)
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
    variable._check_live()
    _check_linkable_pair(variable, notify)

    def var_changed() -> None:
        if not link.active or link._copying or variable.disposed:
            return
        value = variable.get_state()
        if state_equivalent(value, getter()):
            return
        link._copying = True
        try:
            setter(value)
        finally:
            link._copying = False

    def external_changed() -> None:
        if not link.active or link._copying or variable.disposed:
            return
        value = getter()
        if state_equivalent(value, variable.get_state()):
            return
        link._copying = True
        try:
            variable.set_state(value)
        finally:
            link._copying = False

    h_var = variable.callbacks.add_immediate_callback(var_changed)
    h_ext = notify.add_immediate_callback(external_changed)

    def detach() -> None:
        if not variable.callbacks.disposed:
            variable.callbacks.remove_callback(h_var)
        if not notify.disposed:
            notify.remove_callback(h_ext)

    link = Link(variable, notify, detach)
    _register_link(variable, notify, link)
    link._copying = True
    try:
        setter(variable.get_state())
    finally:
        link._copying = False
    return link
