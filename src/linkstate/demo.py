"""Built-in demo classes for sessions, simulations and the CLI.

Children registered in __init__ are plain attributes, so application code
reads obj.count / obj.title directly while the session layer sees them as
named state keys.
"""

from __future__ import annotations

from .dynamic import ClassRegistry, LinkableDynamicObject
from .linkable import LinkableNumber, LinkableObject, LinkableString, LinkableVariable


class Counter(LinkableObject):
    """A single number, the smallest useful session object."""

    def __init__(self):
        super().__init__()
        self.count = self.register_linkable_child("count", LinkableNumber(default=0))


class Label(LinkableObject):
    def __init__(self):
        super().__init__()
        self.text = self.register_linkable_child("text", LinkableString(default=""))
        self.size = self.register_linkable_child("size", LinkableNumber(default=12))


class Selection(LinkableObject):
    """A set of record keys, stored as a plain list value."""

    def __init__(self):
        super().__init__()
        self.keys = self.register_linkable_child(
            "keys", LinkableVariable(default=[], verifier=_is_key_list)
        )


def _is_key_list(value):
    return value is None or (isinstance(value, list) and all(isinstance(k, str) for k in value))


class Plot(LinkableObject):
    """Nests a fixed Label child plus a dynamic slot, local or global."""

    def __init__(self, registry: ClassRegistry):
        super().__init__()
        self.title = self.register_linkable_child("title", LinkableString(default=""))
        self.label = self.register_linkable_child("label", Label())
        self.source = self.register_linkable_child("source", LinkableDynamicObject(registry))


def build_demo_registry() -> ClassRegistry:
    registry = ClassRegistry()
    registry.register("ex.Counter", Counter)
    registry.register("ex.Label", Label)
    registry.register("ex.Selection", Selection)
    registry.register("ex.Plot", lambda: Plot(registry))
    return registry
