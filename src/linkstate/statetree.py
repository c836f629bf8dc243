"""Session-state value trees: canonical JSON codec, equivalence, diff and patch.

A state node is plain JSON: None, bool, int/float (finite), str, a list, or
a dict with string keys. A non-empty list whose items are all entries (dicts
with only the keys objectName, className and sessionState, and a name or a
class) is an entry list: an ordered list of dynamically created objects,
whose non-empty names are unique. Canonical trees write integral floats as
ints and every entry in the three-key form; ``to_plain`` makes that copy.
Values are treated as immutable; every public API hands out fresh copies.
Nothing here mutates a tree it is given: the private ``_apply``
returns a new version of its base that shares every subtree the diff does
not touch (path copying), so history replay and the client and relay
shadows apply diffs without copying the whole tree first.

Live objects cache their state as plain snapshots (linkable). Snapshots are
shared, not owned: an unchanged subtree is the same object in the snapshots
before and after an edit, so nothing may mutate one (``_apply`` leaves it
as it was). ``_diff_plain`` relies on the sharing: it is one walk that
answers ``{}`` for an identical pair at once, and for a mapping or entry
list whose walk finds no change.

Diffs are themselves plain JSON trees that can double as partial session
states. See docs/diff-format.md for the encoding; the short version:

* ``{}`` is the empty diff and applies as a no-op to any base.
* A Mapping whose sole key is ``"__value__"`` replaces the base wholesale.
* Any other Mapping is a key-wise merge; ``{"__removed__": true}`` deletes
  a key.
* Scalars and Sequences replace bare.
* A list of entry-shaped objects edits an entry list entry-wise, with
  ``{"objectName": n, "__removed__": true}`` removal markers and an optional
  trailing ``{"__order__": [...]}`` flag.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Any

from .errors import ParseError

log = logging.getLogger(__name__)

StateNode = Any
"""A session-state value; see the module docstring for the closed set of shapes."""

OBJECT_NAME_KEY = "objectName"
CLASS_NAME_KEY = "className"
SESSION_STATE_KEY = "sessionState"
RESERVED_ENTRY_KEYS = frozenset((OBJECT_NAME_KEY, CLASS_NAME_KEY, SESSION_STATE_KEY))

REMOVED_MARKER = "__removed__"
ORDER_MARKER = "__order__"
VALUE_MARKER = "__value__"
_DIFF_ITEM_KEYS = RESERVED_ENTRY_KEYS | {REMOVED_MARKER}


def validate_node(node: StateNode) -> None:
    """Raise TypeError/ValueError if node is not a well-formed state tree.

    Numbers must be finite (NaN/Inf have no JSON encoding here), mapping keys
    must be strings, and non-empty entry names in an entry list unique.
    """
    if node is None or isinstance(node, (bool, str, int)):
        return
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ValueError(f"non-finite number in state tree: {node!r}")
        return
    if isinstance(node, list):
        if _is_entry_list(node):
            _unique_names(node)
        for item in node:
            validate_node(item)
        return
    if isinstance(node, dict):
        for k, v in node.items():
            if not isinstance(k, str):
                raise TypeError(f"mapping key must be str, got {type(k).__name__}")
            validate_node(v)
        return
    raise TypeError(f"not a state node: {type(node).__name__}")


def to_plain(node: StateNode) -> Any:
    """Canonical copy of a state tree, sharing nothing with it: integral
    floats become ints and entry lists come out in the three-key form, with
    keys in reserved order. Raises ValueError on repeated entry names and
    TypeError on anything that is not a state node."""
    # Mappings first: they are the most common container in a snapshot.
    if isinstance(node, dict):
        return {k: to_plain(v) for k, v in node.items()}
    if node is None or isinstance(node, (str, int)):  # bool is an int
        return node
    if isinstance(node, float):
        # Integral floats become ints so 5.0 and 5 are one canonical value.
        return int(node) if node.is_integer() else node
    if isinstance(node, list):
        if _is_entry_list(node):
            return _unique_names(
                [
                    {
                        OBJECT_NAME_KEY: e.get(OBJECT_NAME_KEY, ""),
                        CLASS_NAME_KEY: e.get(CLASS_NAME_KEY, ""),
                        SESSION_STATE_KEY: to_plain(e.get(SESSION_STATE_KEY)),
                    }
                    for e in node
                ]
            )
        return [to_plain(x) for x in node]
    raise TypeError(f"not a state node: {type(node).__name__}")


def _entry_shaped(obj: Any) -> bool:
    return (
        isinstance(obj, dict)
        and obj.keys() <= RESERVED_ENTRY_KEYS
        and (OBJECT_NAME_KEY in obj or CLASS_NAME_KEY in obj)
        and isinstance(obj.get(OBJECT_NAME_KEY, ""), str)
        and isinstance(obj.get(CLASS_NAME_KEY, ""), str)
    )


def _is_entry_list(obj: Any) -> bool:
    # Non-empty: an empty array cannot be told apart from an empty Sequence,
    # so it decodes as a Sequence and the two compare as equivalent.
    return isinstance(obj, list) and bool(obj) and all(map(_entry_shaped, obj))


def _finite(literal: str) -> float:
    x = float(literal)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in JSON: {literal}")
    return x


def parse_json(text: str | bytes) -> Any:
    """json.loads for outside input: NaN and Infinity literals, and float
    literals beyond the float range (1e999), raise ValueError, since no
    state tree may hold a non-finite number."""
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


def encode(node: StateNode) -> str:
    """Canonical compact JSON encoding. Key order is preserved (it is part of
    the state), entries always carry all three reserved keys, and integral
    floats are written as integers."""
    validate_node(node)
    return json.dumps(to_plain(node), ensure_ascii=False, allow_nan=False, separators=(",", ":"))


def decode(text: str) -> StateNode:
    """Inverse of encode. Raises ParseError on malformed JSON and ValueError
    on NaN/Infinity literals and out-of-range numbers."""
    try:
        data = parse_json(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e}") from e
    return to_plain(data)


def encode_diff(d: Any) -> str:
    """Canonical compact encoding of a diff tree (diffs are plain JSON)."""
    return json.dumps(d, ensure_ascii=False, allow_nan=False, separators=(",", ":"))


def decode_diff(text: str) -> Any:
    """Parse a diff tree. Markers and short entries are kept as written."""
    try:
        return parse_json(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e}") from e


# --- equivalence --------------------------------------------------------------

def state_equivalent(a: StateNode, b: StateNode) -> bool:
    """Structural equivalence: Mapping key order is ignored, entry order in an
    entry list is significant, numbers compare exactly (but 5 == 5.0),
    and bool never equals a number."""
    return _plain_equivalent(to_plain(a), to_plain(b))


def _plain_equivalent(a: Any, b: Any) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_plain_equivalent(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_plain_equivalent(v, b[k]) for k, v in a.items())
    return False


# --- diff ---------------------------------------------------------------------

def is_empty_diff(d: Any) -> bool:
    return d == {}


def diff(old: StateNode, new: StateNode) -> Any:
    """Compute a diff tree such that apply_diff(old, diff(old, new))
    is equivalent to new. diff(a, a) is {} for any a."""
    return _diff_plain(to_plain(old), to_plain(new))


def _replacement(v: Any) -> Any:
    v = to_plain(v)
    if isinstance(v, dict):
        return {VALUE_MARKER: v}
    return v


def _diff_plain(a: Any, b: Any) -> Any:
    # One walk: equal subtrees come back as {} (an identical one at once),
    # and payloads taken from b are copied, so the diff shares nothing with
    # b: a caller may change a diff it was handed without touching b.
    if a is b:
        return {}
    if isinstance(a, dict):
        if not isinstance(b, dict):
            return _replacement(b)
        out: dict = {}
        for k in a:
            if k not in b:
                out[k] = {REMOVED_MARKER: True}
        for k, v in b.items():
            if k in a:
                sub = _diff_plain(a[k], v)
                if sub != {}:
                    out[k] = sub
            else:
                out[k] = _replacement(v)
        return out
    if _is_entry_list(a) and (b == [] or _entry_list_beside(b, a)):
        return _diff_entry_list(a, b)
    return {} if _plain_equivalent(a, b) else _replacement(b)


def _entry_list_beside(b: Any, a: list) -> bool:
    # _is_entry_list(b) for a b that shares entries with the entry list a:
    # an entry of a at the same position needs no second look.
    return (
        isinstance(b, list)
        and bool(b)
        and all(x is y or _entry_shaped(x) for x, y in zip(b, a))
        and all(map(_entry_shaped, b[len(a) :]))
    )


def _diff_entry_list(a: list, b: list) -> Any:
    # Named entries match by name; the k-th anonymous entry of a matches the
    # k-th anonymous entry of b. Removal markers come first (targeting the
    # tail anonymous slots), then one item per new entry in new order.
    # Returns {} when the lists are equivalent.
    a_order = [e.get(OBJECT_NAME_KEY, "") for e in a]
    b_order = [e.get(OBJECT_NAME_KEY, "") for e in b]
    out: list = []
    unique = _names_unique(a_order)
    if a_order == b_order and unique:
        # The same entries in the same order: entry i matches entry i.
        partners: Any = range(len(b))
        changed = reordered = False
    elif not unique and _plain_equivalent(a, b):
        # Repeated names (no applied tree holds them) defeat matching by name,
        # but equal lists still diff to nothing.
        return {}
    else:
        a_names = {}
        a_anon = []
        for i, n in enumerate(a_order):
            if n:
                a_names[n] = i
            else:
                a_anon.append(i)
        matched_a = set()
        partners = []  # index into a (or None) for each entry of b
        anon_used = 0
        for n in b_order:
            if n:
                p = a_names.get(n)
            elif anon_used < len(a_anon):
                p = a_anon[anon_used]
                anon_used += 1
            else:
                p = None
            partners.append(p)
            if p is not None:
                matched_a.add(p)
        for i, n in enumerate(a_order):
            if i not in matched_a:
                out.append({OBJECT_NAME_KEY: n, REMOVED_MARKER: True})
        old_surviving = [a_order[i] for i in sorted(matched_a)]
        new_surviving = [n for n, p in zip(b_order, partners) if p is not None]
        reordered = old_surviving != new_surviving
        changed = reordered or bool(out)

    for e, n, p in zip(b, b_order, partners):
        if p is not None and a[p] is e:
            out.append({OBJECT_NAME_KEY: n})
            continue
        cls = e.get(CLASS_NAME_KEY, "")
        st = e.get(SESSION_STATE_KEY)
        if p is not None and cls == "" and a[p].get(CLASS_NAME_KEY, "") != "":
            # Demotion to a by-name reference. A bare reference entry reads as
            # a mention on an existing target, so tombstone the old one first.
            out.append({OBJECT_NAME_KEY: n, REMOVED_MARKER: True})
            out.append({OBJECT_NAME_KEY: n, CLASS_NAME_KEY: "", SESSION_STATE_KEY: to_plain(st)})
            changed = True
            continue
        if p is None or a[p].get(CLASS_NAME_KEY, "") != cls:
            # Created or recreated under a different class: full entry.
            out.append({OBJECT_NAME_KEY: n, CLASS_NAME_KEY: cls, SESSION_STATE_KEY: to_plain(st)})
            changed = True
            continue
        sub = _diff_plain(a[p].get(SESSION_STATE_KEY), st)
        if sub == {}:
            out.append({OBJECT_NAME_KEY: n})
            # Entries written with different key sets are not equivalent.
            changed = changed or a[p].keys() != e.keys()
        else:
            out.append({OBJECT_NAME_KEY: n, CLASS_NAME_KEY: cls, SESSION_STATE_KEY: sub})
            changed = True

    # The marker is name-based, so it can only be written when every entry is
    # named; anonymous order is carried by mention order alone.
    if reordered and all(b_order):
        out.append({ORDER_MARKER: b_order})
    return out if changed else {}


def _names_unique(names: list) -> bool:
    named = set(names)
    named.discard("")
    return len(named) == len(names) - names.count("")


# --- apply --------------------------------------------------------------------

def apply_diff(base: StateNode, d: Any, remove_missing: bool = False) -> StateNode:
    """Apply a diff (or any partial session state) to a value, returning a
    fresh canonical value. remove_missing controls whether entries of an
    entry list not mentioned by the diff are dropped (True) or retained
    (False); explicit removal markers are honored either way."""
    return to_plain(_apply(base, d, remove_missing))


def _is_removal(v: Any) -> bool:
    return isinstance(v, dict) and v.get(REMOVED_MARKER) is True


def _unique_names(entries: list) -> list:
    names = [e[OBJECT_NAME_KEY] for e in entries if e.get(OBJECT_NAME_KEY, "")]
    if len(names) != len(set(names)):
        raise ValueError("duplicate entry names in an entry list")
    return entries


def _materialize(d: Any) -> Any:
    """Read a diff node as a full value (used where the base has nothing to
    merge into). Removal markers vanish; order markers are dropped. The
    result is a copy: it shares nothing with d."""
    if isinstance(d, dict):
        if len(d) == 1 and VALUE_MARKER in d:
            return to_plain(d[VALUE_MARKER])
        return {k: _materialize(v) for k, v in d.items() if not _is_removal(v)}
    if isinstance(d, list):
        return _apply(None, d, False)  # nothing to merge into
    return d


def _apply(base: Any, d: Any, remove_missing: bool) -> Any:
    """Apply the plain diff d to the plain tree base. Neither is changed:
    the result shares every subtree of base that d leaves alone (a mapping
    is copied once before its keys change, an entry list gets a new dict
    only for the entries d changes) and nothing with d."""
    if isinstance(d, dict):
        if not d:
            return base
        if len(d) == 1 and VALUE_MARKER in d:
            return to_plain(d[VALUE_MARKER])
        if isinstance(base, dict):
            out = dict(base)
            for k, sub in d.items():
                if _is_removal(sub):
                    out.pop(k, None)
                elif k in out:
                    out[k] = _apply(out[k], sub, remove_missing)
                else:
                    out[k] = _materialize(sub)
            return out
        # Mismatched site: the merge has nothing to merge into.
        return _materialize(d)
    if isinstance(d, list):
        parsed = _entry_diff(d)
        if parsed is not None:
            return _apply_entry_diff(base, *parsed, remove_missing)
        if d == [] and _is_entry_list(base):
            # Empty full state over dynamic entries: the flag decides whether
            # the unmentioned entries survive, same as the live containers.
            return [] if remove_missing else base
        return to_plain(d)
    return d


@dataclass
class EntryItem:
    """Normalized form of one entry list diff/state item."""

    name: str = ""
    removed: bool = False
    has_class_key: bool = False
    class_name: str = ""
    has_state: bool = False
    state: Any = None


def _entry_items(d: list, strict: bool) -> tuple[list[EntryItem], list | None] | None:
    """One pass over an entry list or diff: its items (states are subtrees
    of d, not copies) and its order marker, if any. An item is a dict whose
    name and class are strings; strict (an entry diff) also wants it
    entry-shaped with at most a removal marker added, and an order marker
    alone, and returns None at the first other element, which lenient skips
    with a diagnostic. A reference-shaped item (empty className, null or
    absent state) is a pure mention: has_state is False."""
    items: list[EntryItem] = []
    order: list | None = None
    for x in d:
        if isinstance(x, dict):
            if ORDER_MARKER in x and (len(x) == 1 or not strict):
                o = x[ORDER_MARKER]
                if isinstance(o, list) and all(isinstance(n, str) for n in o):
                    order = o
                else:
                    log.warning("ignoring malformed order marker: %r", x)
                continue
            name = x.get(OBJECT_NAME_KEY, "")
            cls = x.get(CLASS_NAME_KEY, "")
            if isinstance(name, str) and isinstance(cls, str):
                if len(x) == 1 and OBJECT_NAME_KEY in x:
                    items.append(EntryItem(name))  # a bare mention, the common item
                    continue
                if not strict or (x.keys() <= _DIFF_ITEM_KEYS and (OBJECT_NAME_KEY in x or CLASS_NAME_KEY in x)):
                    st = x.get(SESSION_STATE_KEY)
                    has_state = SESSION_STATE_KEY in x and not (cls == "" and st is None)
                    removed = x.get(REMOVED_MARKER) is True  # then nothing else is read
                    items.append(EntryItem(name, removed, CLASS_NAME_KEY in x, cls, has_state, st))
                    continue
        if strict:
            return None
        log.warning("ignoring malformed item in dynamic state list: %r", x)
    return items, order


def _entry_diff(d: Any) -> tuple[list[EntryItem], list | None] | None:
    """The items and order marker of d, or None if d is not an entry diff."""
    return _entry_items(d, True) if isinstance(d, list) and d else None


def normalize_entry_items(state: Any) -> tuple[list[EntryItem], list | None]:
    """Normalize an entry list, or a diff shaped like one, into items plus
    an optional order marker; non-items are skipped with a diagnostic."""
    if not isinstance(state, list):
        raise TypeError(f"not a dynamic entry list: {type(state).__name__}")
    return _entry_items(state, False)


def _new_entry(it: EntryItem) -> dict:
    state = _materialize(it.state) if it.has_state else None
    return {OBJECT_NAME_KEY: it.name, CLASS_NAME_KEY: it.class_name, SESSION_STATE_KEY: state}


def _apply_entry_diff(base: Any, items: list[EntryItem], order: list | None, remove_missing: bool) -> list:
    # A base that is not an entry list (a non-list reads as [None]) gives the
    # entries the items name. Otherwise a new list of the survivors in their
    # final order: entries the items change are new dicts, created ones are
    # appended, the rest are base's own.
    by_name: dict[str, int] = {}
    anon_slots: list[int] = []
    for i, e in enumerate(base if isinstance(base, list) else [None]):
        if not _entry_shaped(e):
            return _unique_names([_new_entry(it) for it in items if not it.removed])
        n = e.get(OBJECT_NAME_KEY, "")
        if n:
            by_name[n] = i
        else:
            anon_slots.append(i)
    entries = list(base)
    # Anonymous mentions claim the leading slots, anonymous removals the tail.
    n_anon_mentions = sum(1 for it in items if not it.name and not it.removed)

    removed_idx: set[int] = set()
    mentioned: dict[int, None] = {}  # insertion-ordered set: mention order
    anon_mention_i = 0
    anon_removed_i = 0

    for it in items:
        if it.removed:
            if it.name:
                t = by_name.get(it.name)
            else:
                slot = n_anon_mentions + anon_removed_i
                anon_removed_i += 1
                t = anon_slots[slot] if slot < len(anon_slots) else None
            if t is not None:
                removed_idx.add(t)
            continue
        if it.name:
            t = by_name.get(it.name)
            if t is not None and t in removed_idx:
                t = None  # removal earlier in this diff tombstones the name
        else:
            t = anon_slots[anon_mention_i] if anon_mention_i < len(anon_slots) else None
            anon_mention_i += 1
        if t is None:
            # Creation needs the className key (possibly empty: a reference
            # entry). A bare mention of an unknown entry is skipped.
            if it.has_class_key:
                entries.append(_new_entry(it))
                mentioned[len(entries) - 1] = None
            continue
        e = entries[t]
        if it.has_class_key and it.class_name and it.class_name != e.get(CLASS_NAME_KEY, ""):
            entries[t] = _new_entry(it)
        elif it.has_state:
            entries[t] = {**e, SESSION_STATE_KEY: _apply(e.get(SESSION_STATE_KEY), it.state, remove_missing)}
        mentioned[t] = None

    survivors = [i for i in range(len(entries)) if i not in removed_idx]
    if order is not None:
        by_final_name = {entries[i][OBJECT_NAME_KEY]: i for i in survivors if entries[i].get(OBJECT_NAME_KEY, "")}
        head = [by_final_name[n] for n in order if n in by_final_name]
        in_head = set(head)
        final = head + [i for i in survivors if i not in in_head]
    else:
        final = [i for i in mentioned if i not in removed_idx]
        final += [i for i in survivors if i not in mentioned]

    if remove_missing:
        final = [i for i in final if i in mentioned]

    return _unique_names([entries[i] for i in final])
