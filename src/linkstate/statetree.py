"""Session-state value trees: canonical JSON codec, equivalence, diff and patch.

A state node is plain JSON: None, bool, int/float (finite), str, a list, or
a dict with string keys. A non-empty list whose items are all entries (dicts
with only the keys objectName, className and sessionState, and a name or a
class) is an entry list: an ordered list of dynamically created objects,
whose non-empty names are unique. Canonical trees write integral floats as
ints and every entry in the three-key form; ``to_plain`` makes that copy,
and its walk is the one check that decides what is wrong with a tree. A
tree that is canonical already needs no copy to be checked, compared or
written: ``_is_canonical`` is one walk that copies nothing, and where it
holds, ``encode``, ``decode``, ``validate_node``, ``state_equivalent`` and a
variable's reach read the tree as it is (``_canonical``). Only what is
handed out, or must share nothing, is copied.
Values are treated as immutable; every public API hands out fresh copies.
Nothing here mutates a tree it is given: the private ``_apply``
returns a new version of its base that shares every subtree the diff does
not touch (path copying), so history replay and the client and relay
shadows apply diffs without copying the whole tree first. Where a diff
node has nothing to merge into (a new key, a created entry's state, a
mapping over a non-mapping), ``_apply`` materializes it over a fresh
``{}``: removal markers vanish, order markers go, and the value shares
nothing with the diff.

Live objects cache their state as plain snapshots (linkable). Snapshots are
shared, not owned: an unchanged subtree is the same object in the snapshots
before and after an edit, so nothing may mutate one (``_apply`` leaves it
as it was). ``_diff_plain`` relies on the sharing: it is one walk that
answers ``{}`` for an identical pair at once, and for a mapping or entry
list whose walk finds no change. A history record needs both diffs of a
snapshot pair; ``_diff_both`` gives them from one walk when the two entry
lists pair up by position.

Matching. One rule decides which entry of one entry list is which entry
of another: equal keys (``_keys``). A named entry's key is its name and
the k-th anonymous entry's is ``("", k)``, so the k-th anonymous entries
of two lists match. The by-name diff matches with one dict over the old
list's keys, the by-name apply looks each item up by the same keys (an
anonymous item takes the next anonymous key, mentions first, removals
after them), and names are unique when no two keys are equal.

Trusted and untrusted entry lists. The entry lists a snapshot builds
(linkable, dynamic) and the ones ``_apply`` builds are of the private list
subclass ``_EntryList``, which vouches for their shape: every item is an
entry and no non-empty name repeats. The history's kept states, the relay's
state and a client's ``_published`` shadow are all such lists, so a diff
or an apply over them checks no entry's shape and no name's uniqueness.
Input from outside (``decode``, ``parse_json``, the public ``diff`` and
``apply_diff`` arguments, wire payloads) is always plain lists and gets
every check, and every public result is plain and fresh: a copy
(``to_plain``), or ``decode``'s own parse.

Mention lists. A built list whose entries are all named has one mention
list, ``[{"objectName": n}, ...]``, built on first use and shared by every
list derived from it by replacing entries in place (a snapshot rebuilt for
changed children, an apply read in place). Two built lists with the same
names in the same order pair up by position and share it. Their diff finds
the positions whose entries are not identical in one C-level pass
(``operator.is_not``) and is a copy of the mention list with only those
positions replaced, so every diff over a list's lineage (history steps,
pending and published diffs) shares the unchanged items, and an unchanged
entry costs one pointer per diff. A list with an anonymous entry has none:
``{"objectName": ""}`` is an anonymous entry item, not a mention. Internal
diffs may share mention dicts because nothing mutates them; the public
``diff`` and ``apply_diff`` work on plain copies, which carry none. A
mention list also caches its text, ``[{"objectName":…},…]`` as
``encode_diff`` writes it, with each item's start offset, built on first
use. The wire uses it both ways: a client's flush diff is an
``_InPlaceDiff``, which carries the mention list it was built against, so
``encode_diff`` copies the unchanged runs from the text and encodes only
the other items; and a payload read against a base (``_read_in_place``)
is compared with the base's mention text at item boundaries, only the
items that differ are parsed, and the result is an ``_InPlaceDiff`` whose
other items are the mention list's own dicts. The read only splits the
text into items; what they mean is ``_entry_diff``'s to decide. History's
diffs stay plain lists.

An entry diff is a non-empty list whose every element is an entry item (an
entry, maybe with a removal marker) or an order marker alone; a full entry
list is one too. One shape check (``_shaped``) serves an entry and an item,
whose key set only adds the removal marker. An order marker that is no list
of distinct names is ignored. ``_entry_diff`` is the diff's one reader, and
``_entry_item`` checks each item: a bare ``{"objectName": n}`` mention
becomes just n, and any other item is the dict it arrived as, with no
parsed copy. Each item rule is written once here and read from the dict
where it applies: a removal (``_is_removal``, as in the mapping merge), a
state (``_carries_state``: a reference-shaped item is a pure mention), a
class change (``_updated_entry``) and a creation (``_new_entry``). No other
module reads an item's keys: the relay asks ``_names_each_entry_once``
whether a diff names an entry twice. The value-level apply
(``_apply_entry_diff``) takes what the reader returned, and a live
container reaches the result. Almost every diff names a built base's
entries in the base's own places, one item each: given that base, the
reader finds the items that differ from its mention list in one C-level
pass (``operator.ne``, or an identity pass over a diff read against that
list) and checks only those, each once, and returns them with the mention
list they were read over. The apply replaces only their entries in a base
that pairs with that list, and spells them out by name over any other
base, so a client reads an inbound diff once for its shadow and its root.
A changed item that is a removal, names another entry, is an order marker
or is malformed hands the whole diff to the full read and the match by
name (``_apply_entry_diff_by_name``). Any other list is no entry diff: a
value apply replaces with it, the relay drops it as malformed at the root,
and a live container ignores it.

Diffs are themselves plain JSON trees that can double as partial session
states. See docs/diff-format.md for the encoding; the short version:

* ``{}`` is the empty diff and applies as a no-op to any base.
* A Mapping whose sole key is ``"__value__"`` replaces the base wholesale.
* Any other Mapping is a key-wise merge; ``{"__removed__": true}`` deletes
  a key.
* Scalars and Sequences replace bare.
* An entry diff edits an entry list entry-wise, with
  ``{"objectName": n, "__removed__": true}`` removal markers and a trailing
  ``{"__order__": [...]}`` marker when the survivors moved.
"""

from __future__ import annotations

import json
import logging
import math
from itertools import accumulate, chain, compress, count, repeat
from json.encoder import encode_basestring
from operator import is_, is_not, itemgetter, ne
from typing import Any, Callable

from .errors import ParseError

log = logging.getLogger(__name__)

StateNode = Any
"""A session-state value; see the module docstring for the closed set of shapes."""

OBJECT_NAME_KEY = "objectName"
CLASS_NAME_KEY = "className"
SESSION_STATE_KEY = "sessionState"
_ENTRY_KEYS = (OBJECT_NAME_KEY, CLASS_NAME_KEY, SESSION_STATE_KEY)  # an entry's keys in canonical order
RESERVED_ENTRY_KEYS = frozenset(_ENTRY_KEYS)

REMOVED_MARKER = "__removed__"
ORDER_MARKER = "__order__"
VALUE_MARKER = "__value__"
_DIFF_ITEM_KEYS = RESERVED_ENTRY_KEYS | {REMOVED_MARKER}


def validate_node(node: StateNode) -> None:
    """Raise TypeError/ValueError if node is not a well-formed state tree.

    Numbers must be finite (NaN/Inf have no JSON encoding here), mapping keys
    must be strings, and non-empty entry names in an entry list unique. A
    canonical tree (_is_canonical) passes at once; any other is checked by
    its copy (to_plain), which raises the error.
    """
    _canonical(node)


def to_plain(node: StateNode) -> Any:
    """Canonical copy of a state tree, sharing nothing with it: integral
    floats become ints and entry lists come out in the three-key form, with
    keys in reserved order, as plain lists. It checks the tree as it walks
    it, and is the one code that decides what is wrong with one: TypeError
    on a non-str mapping key or anything that is not a state node,
    ValueError on a non-finite number or a repeated entry name, the first
    bad node in walk order deciding. A str, int, bool or None value is
    copied as itself, with no call; a str, int or float subclass value or
    str subclass key comes out as its exact value, and none of its own
    methods runs."""
    # Mappings first: they are the most common container in a snapshot. An
    # explicit loop checks each key before its value, and beats a dict
    # comprehension here.
    if isinstance(node, dict):
        out = {}
        for k, v in node.items():
            if type(k) is not str:
                if not isinstance(k, str):
                    raise TypeError(f"mapping key must be str, got {type(k).__name__}")
                k = str.__str__(k)
            out[k] = v if type(v) in _LEAF else to_plain(v)
        return out
    if type(node) in _LEAF:
        return node
    if isinstance(node, str):
        return str.__str__(node)
    if isinstance(node, int):  # bool, which is a leaf, has no subclasses
        return int.__index__(node)
    if isinstance(node, float):
        node = float.__float__(node)
        # Integral floats become ints so 5.0 and 5 are one canonical value;
        # NaN and the infinities are not integral.
        if node.is_integer():
            return int(node)
        if not math.isfinite(node):
            raise ValueError(f"non-finite number in state tree: {node!r}")
        return node
    if isinstance(node, list):
        if _is_entry_list(node):
            if type(node) is not _EntryList and not _names_unique(node):
                raise ValueError("duplicate entry names in an entry list")
            return [
                {
                    OBJECT_NAME_KEY: e.get(OBJECT_NAME_KEY, ""),
                    CLASS_NAME_KEY: e.get(CLASS_NAME_KEY, ""),
                    SESSION_STATE_KEY: to_plain(e.get(SESSION_STATE_KEY)),
                }
                for e in node
            ]
        return [x if type(x) in _LEAF else to_plain(x) for x in node]
    raise TypeError(f"not a state node: {type(node).__name__}")


_LEAF = frozenset((str, int, bool, type(None)))  # the types to_plain gives back as they are


def _is_canonical(node: Any, depth: int = 100) -> bool:
    """Whether to_plain(node) would give node back (a plain list for a
    built one): exact dicts, lists, str, int, bool and None, floats that
    are finite and not integral (-0.0 is), str keys, and in an entry list
    entries of the three keys in canonical order whose names are unique (a
    built list, _EntryList, vouches for that). Makes no copy and never
    decides an error: where it answers False, to_plain copies the tree and
    raises what is wrong with it. A tree nested deeper than depth levels
    gets False, so the walk stops well inside the recursion limit, and
    to_plain decides it."""
    t = type(node)
    if t is dict and depth:
        for k, v in node.items():
            if type(k) is not str or type(v) not in _LEAF and not _is_canonical(v, depth - 1):
                return False
        return True
    if (t is list or t is _EntryList) and depth:
        if not node:
            return True
        if _in_entry_form(node):
            if t is list and not _names_unique(node):
                return False
            node = map(itemgetter(SESSION_STATE_KEY), node)  # the entries' states
        elif _is_entry_list(node):
            return False  # an entry that lacks a key, or has them in another order
        return all(type(x) in _LEAF or _is_canonical(x, depth - 1) for x in node)
    if t is float:
        return math.isfinite(node) and not node.is_integer()
    return t in _LEAF


def _in_entry_form(entries: list) -> bool:
    """Whether every item is an entry as to_plain writes one: an exact dict
    of the three keys in canonical order, with an exact str name and
    class. C-level passes over the list, each only after the one before
    held, so none can raise."""
    if not all(map(is_, map(type, entries), repeat(dict))):
        return False
    return all(map(_ENTRY_KEYS.__eq__, map(tuple, entries))) and all(
        map(is_, map(type, chain.from_iterable(map(itemgetter(OBJECT_NAME_KEY, CLASS_NAME_KEY), entries))), repeat(str))
    )


def _canonical(node: Any) -> Any:
    """node itself where it is canonical (_is_canonical), else its checked
    copy (to_plain, which raises on a tree that is no state tree). For
    callers that only read the result: it may share everything with node."""
    return node if _is_canonical(node) else to_plain(node)


class _EntryList(list):
    """An entry list that a snapshot or an apply built: every item is
    entry-shaped and no non-empty name repeats, by construction. The type is
    the proof, so the shape checks answer for it at once. Parsed input is
    never one, and every public result is a plain list (to_plain). The slot
    caches the list's mention list (_mentions)."""

    __slots__ = ("mentions",)


class _Mentions(list):
    """A mention list, [{"objectName": n}, ...]. The slot caches its text
    (_mention_text)."""

    __slots__ = ("text",)


class _InPlaceDiff(list):
    """A diff built or a payload read against a mention list, which it
    carries: a copy of the list with some items replaced. encode_diff
    writes it from the list's text, and _entry_diff over a base with that
    mention list takes only the items that are not its own dicts as
    changed."""

    __slots__ = ("mentions",)

    def __init__(self, mentions: _Mentions):
        super().__init__(mentions)
        self.mentions = mentions


def _mentions(entries: _EntryList) -> _Mentions | None:
    """The bare mention of each entry, [{"objectName": n}, ...], or None if
    an entry is anonymous ({"objectName": ""} is an anonymous entry item, not
    a mention). Built once and shared, read-only, by every list derived from
    entries by replacing entries in place (_in_place_copy) and by the diffs
    over them, which hold its dicts."""
    m = getattr(entries, "mentions", None)
    if m is None:
        names = list(map(dict.get, entries, repeat(OBJECT_NAME_KEY), repeat("")))
        if all(names):
            m = _Mentions({OBJECT_NAME_KEY: n} for n in names)
            m.text = None
        entries.mentions = m or False
    return m or None


def _mention_text(m: _Mentions) -> tuple[str, list[int]]:
    """m's canonical text, as encode_diff writes it, and the offset at which
    each item starts, then the text's length: item i is text[b[i]:b[i+1]-1],
    followed by its "," or the closing "]". Built on first use; a name is
    written by encode_basestring, as the encoder writes it."""
    if m.text is None:
        items = ['{"objectName":' + encode_basestring(x[OBJECT_NAME_KEY]) + "}" for x in m]
        m.text = "[" + ",".join(items) + "]", list(accumulate(map((1).__add__, map(len, items)), initial=1))
    return m.text


def _in_place_copy(base: _EntryList) -> _EntryList:
    """A copy of base whose entries are to be replaced under the same names:
    it shares base's mention list."""
    out = _EntryList(base)
    out.mentions = getattr(base, "mentions", None)
    return out


def _paired(a: Any, b: Any) -> _Mentions | None:
    """The mention list of two built entry lists whose entries have the same
    names in the same order (b then shares a's), else None."""
    m = _mentions(a) if type(a) is _EntryList else None
    return m if m is not None and _pairs_with(b, m) else None


def _pairs_with(b: Any, m: _Mentions) -> bool:
    """Whether b is a built entry list whose entries have m's names in m's
    order; b then shares m."""
    if type(b) is not _EntryList or len(b) != len(m):
        return False
    mb = _mentions(b)
    if mb is not m and mb != m:
        return False
    b.mentions = m
    return True


def _shaped(x: Any, keys: frozenset) -> bool:
    """Whether x is a dict of only the given keys, with a name or a class,
    each a string: an entry (RESERVED_ENTRY_KEYS) or an entry item, which
    may also carry a removal marker (_DIFF_ITEM_KEYS)."""
    return (
        isinstance(x, dict)
        and x.keys() <= keys
        and (OBJECT_NAME_KEY in x or CLASS_NAME_KEY in x)
        and isinstance(x.get(OBJECT_NAME_KEY, ""), str)
        and isinstance(x.get(CLASS_NAME_KEY, ""), str)
    )


def _entry_shaped(obj: Any) -> bool:
    return _shaped(obj, RESERVED_ENTRY_KEYS)


def _is_entry_list(obj: Any) -> bool:
    # Non-empty: an empty array cannot be told apart from an empty Sequence,
    # so it decodes as a Sequence and the two compare as equivalent.
    if type(obj) is _EntryList:
        return bool(obj)
    return isinstance(obj, list) and bool(obj) and all(map(_entry_shaped, obj))


def _finite(literal: str) -> float:
    x = float(literal)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in JSON: {literal}")
    return x


# One decoder and one encoder for the module: json.loads and json.dumps with
# settings build a new one per call. Neither keeps state between calls: the
# C scanner clears its key memo after each, and each encode makes its own
# circular-reference markers.
_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False, separators=(",", ":"))


def parse_json(text: str | bytes) -> Any:
    """json.loads for outside input, through the module's one decoder: NaN
    and Infinity literals, and float literals beyond the float range
    (1e999), raise ValueError, since no state tree may hold a non-finite
    number. Bytes are decoded as json.loads does (UTF-8, -16 or -32, a BOM
    allowed)."""
    return _DECODER.decode(text if isinstance(text, str) else text.decode(json.detect_encoding(text), "surrogatepass"))


def encode(node: StateNode) -> str:
    """Canonical compact JSON encoding. Key order is preserved (it is part of
    the state), entries always carry all three reserved keys, and integral
    floats are written as integers. A canonical tree, such as a fresh
    get_session_state(), is checked (_is_canonical) and written as it is;
    any other is written from its checked copy (to_plain)."""
    return encode_diff(_canonical(node))


def decode(text: str) -> StateNode:
    """Inverse of encode: decode_diff's parse, which is fresh, itself where
    it is canonical already, else its canonical copy (to_plain). Raises
    ParseError on malformed JSON and ValueError on NaN/Infinity literals,
    out-of-range numbers and anything to_plain refuses."""
    return _canonical(decode_diff(text))


def encode_diff(d: Any) -> str:
    """The canonical compact text of any plain JSON value (a diff tree, a
    wire message, a report): no whitespace, non-ASCII written as is, key
    order kept, NaN and the infinities refused. encode is this over the
    canonical tree (_canonical). One encoder, built once, serves every call.
    An in-place diff (_InPlaceDiff) with few changed items is spliced: each
    run of its mention list's own dicts is a slice of the list's text, and
    only the other items go through the encoder. The text is the same."""
    if type(d) is _InPlaceDiff:
        m = d.mentions
        if len(d) == len(m):
            at = _differing(d, m)
            if 4 * len(at) <= len(m):
                t, b = _mention_text(m)
                parts = []
                prev = 0
                for i in at:
                    parts += t[prev : b[i]], _ENCODER.encode(d[i])
                    prev = b[i + 1] - 1
                parts.append(t[prev:])
                return "".join(parts)
    return _ENCODER.encode(d)


def _read_in_place(text: str, start: int, end: int, base: Any) -> _InPlaceDiff | None:
    """The JSON array written in text[start:end], read against the built
    list base: its text is compared with the text of base's mention list
    at item boundaries, one slice compare per probe, and only the items
    that differ are parsed, as whole JSON values. Every other item is the
    mention list's own dict. None unless the text is base's mention text
    with a few items replaced; the caller then parses the text whole. Where
    it answers, the value equals that parse's. It only splits: whether the
    items it parsed make an in-place diff is _entry_diff's to decide."""
    m = _mentions(base) if type(base) is _EntryList else None
    if m is None:
        return None
    t, b = _mention_text(m)
    n = len(m)
    out = _InPlaceDiff(m)
    budget = 2 + n // 16  # changed items worth reading apart from a whole parse
    i, p = 0, start + 1  # item i of t is written at text[p]
    while True:
        k = _common_items(text, p, t, b, i)
        p += b[k] - b[i]
        if k == n:
            return out if p == end else None
        budget -= 1
        if budget < 0:
            return None
        try:
            out[k], p = _DECODER.scan_once(text, p)
        except (StopIteration, ValueError, RecursionError):
            return None
        i = k + 1
        if text.startswith("]", p):
            return out if i == n and p + 1 == end else None
        if i == n or not text.startswith(",", p):
            return None
        p += 1


def _common_items(text: str, p: int, t: str, b: list[int], i: int) -> int:
    """The largest k such that t's items i to k-1, with the "," after each
    (and the closing "]" for k = len(b) - 1), are written at text[p]: the
    whole rest first, then by bisection, each probe comparing only the
    items not yet known to match."""
    n = len(b) - 1
    if text.startswith(t[b[i] :], p) if i else text.startswith(t, p - 1):
        return n
    lo, hi = i, n  # items i..lo-1 are written there, items i..hi-1 are not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if text.startswith(t[b[lo] : b[mid]], p + b[lo] - b[i]):
            lo = mid
        else:
            hi = mid
    return lo


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
    and bool never equals a number. Each side is compared as it is where
    it is canonical (_canonical), so comparing copies none."""
    return _plain_equivalent(_canonical(a), _canonical(b))


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
    if _is_entry_list(a) and (b == [] or _is_entry_list(b)):
        return _diff_entry_list(a, b)
    return {} if _plain_equivalent(a, b) else _replacement(b)


def _diff_entry_list(a: list, b: list) -> Any:
    # Entries match by key (_keys): by name, and the k-th anonymous entry
    # of a matches the k-th of b. Returns {} when the lists are equivalent.
    # The common case, two built lists with the same names in the same order,
    # pairs entry i with entry i: one C-level pass finds the pairs that are
    # not identical, and only those are diffed.
    m = _paired(a, b)
    if m is not None:
        return _diff_in_place(m, a, b, _differing(a, b))
    return _diff_entry_list_by_name(a, b)


def _diff_both(a: Any, b: Any) -> tuple[Any, Any]:
    """(_diff_plain(a, b), _diff_plain(b, a)), in one walk where it can be:
    two built entry lists whose entries pair up by position (a snapshot and
    the one before it, the common record). Only the entries that differ are
    diffed, once each way; every other item of both diffs is the lists'
    shared mention. Anything else diffs twice."""
    if a is b:
        return {}, {}
    m = _paired(a, b)
    if m is not None:
        at = _differing(a, b)
        return _diff_in_place(m, a, b, at), _diff_in_place(m, b, a, at)
    fwd = _diff_plain(a, b)
    # An empty diff means the two are equivalent, so the other way is empty too.
    return fwd, ({} if fwd == {} else _diff_plain(b, a))


def _differing(a: list, b: list) -> list[int]:
    """The positions where two lists of the same length hold different objects."""
    return list(compress(range(len(a)), map(is_not, a, b)))


def _diff_for_wire(a: Any, b: Any) -> Any:
    """_diff_plain(a, b) as a client publishes it: where the two lists pair
    up by position the diff is an _InPlaceDiff, which carries their mention
    list, so encode_diff writes it from the list's text. History keeps its
    diffs plain lists."""
    m = _paired(a, b)
    if m is None:
        return _diff_plain(a, b)
    return _diff_in_place(m, a, b, _differing(a, b), _InPlaceDiff)


def _diff_in_place(m: _Mentions, a: list, b: list, at: list[int], copy: Callable = list.copy) -> Any:
    """The diff of two lists that pair up by position, whose mention list is
    m, given the positions at where their entries differ: copy(m), a plain
    list by default, with each of those positions replaced by its items (a
    demotion writes two), or {} when none of them changes. (list.copy
    copies the _Mentions subclass as fast as a list; list(m) iterates it.)"""
    parts = []
    changed = False
    for i in at:
        items: list = []
        changed = _diff_matched(items, a[i], b[i], m[i][OBJECT_NAME_KEY]) or changed
        parts.append((i, items))
    if not changed:
        return {}
    out = copy(m)
    for i, items in reversed(parts):
        out[i : i + 1] = items
    return out


def _diff_entry_list_by_name(a: list, b: list) -> Any:
    # Entries match by key (_keys): removal markers for the entries of a
    # that b lacks come first, then one item per entry of b in b's order,
    # then an order marker if the survivors moved.
    at = dict(zip(_keys(a), count()))
    keys = _keys(b)
    kept = set(keys)
    out: list = [
        {OBJECT_NAME_KEY: e.get(OBJECT_NAME_KEY, ""), REMOVED_MARKER: True} for k, e in zip(at, a) if k not in kept
    ]
    partners = list(map(at.get, keys))  # index into a (or None) for each entry of b
    survivors = [p for p in partners if p is not None]
    moved = survivors != sorted(survivors)
    changed = moved or bool(out)
    for e, p in zip(b, partners):
        n = e.get(OBJECT_NAME_KEY, "")
        if p is None:
            # Created: full entry.
            cls = e.get(CLASS_NAME_KEY, "")
            out.append({OBJECT_NAME_KEY: n, CLASS_NAME_KEY: cls, SESSION_STATE_KEY: to_plain(e.get(SESSION_STATE_KEY))})
            changed = True
        elif a[p] is e:
            out.append({OBJECT_NAME_KEY: n})
        else:
            changed = _diff_matched(out, a[p], e, n) or changed
    # The marker is name-based, so it can only be written when every entry is
    # named; anonymous order is carried by mention order alone.
    if moved and all(type(k) is str for k in keys):
        out.append({ORDER_MARKER: keys})
    return out if changed else {}


def _diff_matched(out: list, old: dict, e: dict, n: str) -> bool:
    """Append the items that turn the entry old into its match e, named n;
    True when they change it."""
    cls = e.get(CLASS_NAME_KEY, "")
    st = e.get(SESSION_STATE_KEY)
    old_cls = old.get(CLASS_NAME_KEY, "")
    if old_cls != cls:
        if cls == "":
            # Demotion to a by-name reference. A bare reference entry reads
            # as a mention on an existing target, so tombstone the old one.
            out.append({OBJECT_NAME_KEY: n, REMOVED_MARKER: True})
        # Recreated under a different class: full entry.
        out.append({OBJECT_NAME_KEY: n, CLASS_NAME_KEY: cls, SESSION_STATE_KEY: to_plain(st)})
        return True
    sub = _diff_plain(old.get(SESSION_STATE_KEY), st)
    if sub == {}:
        out.append({OBJECT_NAME_KEY: n})
        # Entries written with different key sets are not equivalent.
        return old.keys() != e.keys()
    out.append({OBJECT_NAME_KEY: n, CLASS_NAME_KEY: cls, SESSION_STATE_KEY: sub})
    return True


def _keys(entries: list) -> list:
    """Each entry's match key: its name, or ("", k) for the k-th anonymous
    entry. Two lists' entries with equal keys are one entry: named ones
    match by name, and the k-th anonymous entries match."""
    anonymous = count()
    return [e.get(OBJECT_NAME_KEY, "") or ("", next(anonymous)) for e in entries]


def _names_unique(entries: list) -> bool:
    """No non-empty objectName repeats among the entries: no two keys are equal."""
    keys = _keys(entries)
    return len(keys) == len(set(keys))


# --- apply --------------------------------------------------------------------

def apply_diff(base: StateNode, d: Any, remove_missing: bool = False) -> StateNode:
    """Apply a diff (or any partial session state) to a value, returning a
    fresh canonical value. remove_missing controls whether entries of an
    entry list not mentioned by the diff are dropped (True) or retained
    (False); explicit removal markers are honored either way."""
    return to_plain(_apply(base, d, remove_missing))


def _is_removal(v: Any) -> bool:
    return isinstance(v, dict) and v.get(REMOVED_MARKER) is True


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
                    out[k] = _apply({}, sub, remove_missing)
            return out
        # Mismatched site: the merge has nothing to merge into.
        return _apply({}, d, remove_missing)
    if isinstance(d, list):
        parsed = _entry_diff(d, base)
        if parsed is not None:
            return _apply_entry_diff(base, *parsed, remove_missing)
        if d == [] and _is_entry_list(base):
            # Empty full state over dynamic entries: the flag decides whether
            # the unmentioned entries survive, same as the live containers.
            return [] if remove_missing else base
        return to_plain(d)
    return d


def _entry_item(x: Any) -> dict | str | None:
    """One item of an entry list or entry diff, or None if x is none. An
    item is an entry (a dict of the reserved keys with string name and class,
    one of them present), maybe with a removal marker, and comes out as x
    itself: its rules are read from it where they apply (_is_removal,
    _carries_state, _updated_entry, _new_entry). A bare {"objectName": name}
    with a non-empty name comes out as the name."""
    name = x.get(OBJECT_NAME_KEY) if isinstance(x, dict) and len(x) == 1 else None
    if type(name) is str and name:
        return name
    return x if _shaped(x, _DIFF_ITEM_KEYS) else None


def _carries_state(it: dict) -> bool:
    """Whether the item it carries a state: a reference-shaped item (empty
    className, null or absent state) is a pure mention."""
    return SESSION_STATE_KEY in it and not (it[SESSION_STATE_KEY] is None and not it.get(CLASS_NAME_KEY))


def _names_each_entry_once(items: list[dict | str]) -> bool:
    """No two items of an entry diff read whole (_entry_diff) name one
    entry, but for a removal followed by one re-creation (the demotion to a
    reference that _diff_matched writes)."""
    seen: dict[str, dict | str] = {}  # the last item that named each entry
    for it in items:
        name = it if type(it) is str else it.get(OBJECT_NAME_KEY, "")
        prev = seen.get(name) if name else None  # an anonymous item names no entry
        # A name is no dict: CLASS_NAME_KEY in it would test a substring.
        if prev is not None and not (
            _is_removal(prev) and type(it) is not str and CLASS_NAME_KEY in it and not _is_removal(it)
        ):
            return False
        seen[name] = it
    return True


def _entry_diff(d: Any, base: Any) -> tuple[list | dict, list | None] | None:
    """The items (_entry_item) and order marker of d, or None if d is not an
    entry diff: a non-empty list of items and order markers alone. A marker
    whose value is not a list of distinct names is ignored with a
    diagnostic: a repeated name would repeat its entry. Over a built base
    whose entries d names in their own places, one item each, with no
    removal (the common diff), only the items that are not their entry's
    bare mention are read, each once: one C-level pass against base's
    mention list m finds them, and they come back as {position: item} with
    m in the order's place (the in-place read, which _apply_entry_diff
    applies)."""
    if not (isinstance(d, list) and d):
        return None
    m = _mentions(base) if type(base) is _EntryList and len(d) == len(base) else None
    if m is not None:
        # Every other item equals the bare mention of base's entry at its
        # place, which the full parse reads as that entry's name: a no-op.
        # A diff built or read against m holds m's own dicts there.
        changed = {}
        differs = is_not if type(d) is _InPlaceDiff and d.mentions is m else ne
        for i in compress(range(len(d)), map(differs, d, m)):
            it = _entry_item(d[i])
            if not isinstance(it, dict) or _is_removal(it) or it.get(OBJECT_NAME_KEY) != m[i][OBJECT_NAME_KEY]:
                break  # not an item of its own entry: read the whole diff
            changed[i] = it
        else:
            return changed, m
    items: list[dict | str] = []
    order: list | None = None
    for x in d:
        it = _entry_item(x)
        if it is not None:
            items.append(it)
        elif isinstance(x, dict) and x.keys() == {ORDER_MARKER}:
            o = x[ORDER_MARKER]
            if isinstance(o, list) and all(isinstance(n, str) for n in o) and len(set(o)) == len(o):
                order = o
            else:
                log.warning("ignoring malformed order marker: %r", x)
        else:
            return None
    return items, order


def _new_entry(it: dict | str) -> dict:
    if type(it) is str:
        return {OBJECT_NAME_KEY: it, CLASS_NAME_KEY: "", SESSION_STATE_KEY: None}
    state = _apply({}, it[SESSION_STATE_KEY], False) if _carries_state(it) else None
    name, cls = it.get(OBJECT_NAME_KEY, ""), it.get(CLASS_NAME_KEY, "")
    return {OBJECT_NAME_KEY: name, CLASS_NAME_KEY: cls, SESSION_STATE_KEY: state}


def _updated_entry(e: dict, it: dict, remove_missing: bool) -> dict:
    """The entry e after the item it that names it: a new entry if it gives
    another class, e with its state patched if it carries one, else e."""
    cls = it.get(CLASS_NAME_KEY)
    if cls and cls != e.get(CLASS_NAME_KEY, ""):
        return _new_entry(it)
    if _carries_state(it):
        return {**e, SESSION_STATE_KEY: _apply(e.get(SESSION_STATE_KEY), it[SESSION_STATE_KEY], remove_missing)}
    return e


def _apply_entry_diff(base: Any, items: list | dict, order: list | None, remove_missing: bool) -> list:
    # Items read in place over the mention list m (_entry_diff) change their
    # own entries of a built base that pairs with m: a copy of it gets the
    # changed entries, and nothing moves or goes. Over any other base they
    # are spelled out by name (an unchanged entry's item is its name), so
    # nothing is parsed again. Any other diff matches by name.
    if type(order) is _Mentions:
        if _pairs_with(base, order):
            out = _in_place_copy(base)
            for i, it in items.items():
                out[i] = _updated_entry(base[i], it, remove_missing)
            return out
        items, order = [items.get(i) or x[OBJECT_NAME_KEY] for i, x in enumerate(order)], None
    return _apply_entry_diff_by_name(base, items, order, remove_missing)


def _apply_entry_diff_by_name(base: Any, items: list[dict | str], order: list | None, remove_missing: bool) -> list:
    # A base that is neither an entry list nor empty gives the entries the
    # items name. Otherwise a new list of the survivors in their final
    # order: entries the items change are new dicts, created ones are
    # appended, the rest are base's own. A built base (_EntryList) is taken
    # at its word; any other list has each entry's shape checked.
    trusted = type(base) is _EntryList
    if not trusted and not (isinstance(base, list) and all(map(_entry_shaped, base))):
        out = [_new_entry(it) for it in items if not _is_removal(it)]
        if not _names_unique(out):
            raise ValueError("duplicate entry names in an entry list")
        return _EntryList(out)
    at = dict(zip(_keys(base), count()))
    entries = list(base)
    # An anonymous item takes the next anonymous key: mentions in turn, and
    # removals the keys after the last mention's.
    anonymous = [it for it in items if type(it) is not str and not it.get(OBJECT_NAME_KEY)]
    mentions, removals = count(), count(len(anonymous) - sum(map(_is_removal, anonymous)))
    removed: set[int] = set()
    mentioned: dict[int, None] = {}  # insertion-ordered set: mention order
    for it in items:
        if type(it) is str:
            # A named pure mention moves its entry, if there is one.
            t = at.get(it)
            if t is not None and t not in removed:
                mentioned[t] = None
            continue
        gone = _is_removal(it)
        t = at.get(it.get(OBJECT_NAME_KEY) or ("", next(removals if gone else mentions)))
        if gone:
            if t is not None:
                removed.add(t)
        elif t is not None and t not in removed:
            entries[t] = _updated_entry(entries[t], it, remove_missing)
            mentioned[t] = None
        elif CLASS_NAME_KEY in it:
            # Created (a removal earlier in this diff tombstones the name):
            # needs the className key, possibly empty for a reference entry.
            # A bare mention of an unknown entry is skipped.
            entries.append(_new_entry(it))
            mentioned[len(entries) - 1] = None

    if order is not None:
        final_at = {k: i for i, k in enumerate(_keys(entries)) if i not in removed}
        head = [final_at[n] for n in order if n in final_at]
        in_head = set(head)
        final = head + [i for i in range(len(entries)) if i not in removed and i not in in_head]
        if remove_missing:
            final = [i for i in final if i in mentioned]
    else:
        # Mentioned survivors in mention order, then the unmentioned ones
        # unless they are dropped; a diff that mentions every survivor (the
        # common case) needs no second pass.
        final = [i for i in mentioned if i not in removed] if removed else list(mentioned)
        if not remove_missing and len(final) + len(removed) < len(entries):
            final += [i for i in range(len(entries)) if i not in mentioned and i not in removed]

    out = [entries[i] for i in final]
    # A built base holds no repeated name, an order marker names each entry
    # once, and an item only creates a name no surviving entry of base
    # holds, so only two creations can clash.
    if (not trusted or len(entries) - len(base) > 1) and not _names_unique(out):
        raise ValueError("duplicate entry names in an entry list")
    return _EntryList(out)
