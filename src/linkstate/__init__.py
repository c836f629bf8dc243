"""linkstate: session-driven reactive state framework.

Serializable session-state trees, observable linkable objects, tree diff and
patch, two-way linking, undo history, qualified-key tables, and relay-based
real-time sync with a deterministic network simulator.
"""

from . import errors
from .callbacks import CallbackCollection, FrameScheduler, default_scheduler
from .demo import build_demo_registry
from .dynamic import ClassRegistry, LinkableDynamicObject, LinkableHashMap
from .history import HistoryLog, HistoryStep
from .linkable import (
    LinkableBoolean,
    LinkableNumber,
    LinkableObject,
    LinkableString,
    LinkableVariable,
)
from .linking import Link, link_external_property, link_session_state
from .qkeys import (
    JoinedTable,
    KeyedColumn,
    KeyManager,
    QualifiedKey,
    join_columns,
    load_csv_column,
)
from .statetree import (
    apply_diff,
    decode,
    decode_diff,
    diff,
    encode,
    encode_diff,
    state_equivalent,
    to_plain,
    validate_node,
)

__all__ = [
    "errors",
    # state trees
    "apply_diff",
    "decode",
    "decode_diff",
    "diff",
    "encode",
    "encode_diff",
    "state_equivalent",
    "to_plain",
    "validate_node",
    # scheduling
    "CallbackCollection",
    "FrameScheduler",
    "default_scheduler",
    # linkable objects
    "LinkableBoolean",
    "LinkableNumber",
    "LinkableObject",
    "LinkableString",
    "LinkableVariable",
    "ClassRegistry",
    "LinkableDynamicObject",
    "LinkableHashMap",
    "build_demo_registry",
    # linking
    "Link",
    "link_external_property",
    "link_session_state",
    # history
    "HistoryLog",
    "HistoryStep",
    # qualified keys
    "JoinedTable",
    "KeyManager",
    "KeyedColumn",
    "QualifiedKey",
    "join_columns",
    "load_csv_column",
]
