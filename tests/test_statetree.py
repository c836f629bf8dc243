"""Codec, equivalence, diff and patch for session-state value trees."""

import hashlib
import json
import logging
import random

import pytest

import graphops
import treegen
from treegen import entry
from linkstate.errors import ParseError
from linkstate.statetree import (
    _EntryList,
    apply_diff,
    decode,
    decode_diff,
    diff,
    encode,
    encode_diff,
    parse_json,
    state_equivalent,
    to_plain,
    validate_node,
)


# --- codec -------------------------------------------------------------------

def test_encode_mapping_preserves_key_order():
    assert encode({"title": "hello", "size": 5}) == '{"title":"hello","size":5}'
    assert encode({"size": 5, "title": "hello"}) == '{"size":5,"title":"hello"}'


def test_encode_entry_list_always_three_keys():
    dsl = [entry("plot1", "ex.Counter", {"count": 2})]
    assert encode(dsl) == '[{"objectName":"plot1","className":"ex.Counter","sessionState":{"count":2}}]'
    ref = [entry("shared", "", None)]
    assert encode(ref) == '[{"objectName":"shared","className":"","sessionState":null}]'


def test_encode_integral_float_as_int():
    assert encode(5.0) == "5"
    assert encode({"x": -0.0}) == '{"x":0}'
    assert encode(5.5) == "5.5"


def test_encode_rejects_non_finite():
    with pytest.raises(ValueError):
        encode(float("nan"))
    with pytest.raises(ValueError):
        encode({"x": float("inf")})


# Trees no state may be, with the error each raises: the first bad node in
# walk order decides (a mapping's keys and values in order, an entry list's
# names before its entries).
BAD_TREES = [
    ({1: 2}, TypeError),
    ({"a": {"b": {3: None}}}, TypeError),
    (float("nan"), ValueError),
    (float("-inf"), ValueError),
    ({"x": [1, float("inf")]}, ValueError),
    ({"a": float("nan"), 1: 2}, ValueError),
    ({1: 2, "a": float("nan")}, TypeError),
    ([entry("a", "ex.Counter", None), entry("a", "ex.Label", None)], ValueError),
    ([{"objectName": "a", "sessionState": {1: 2}}, {"objectName": "a"}], ValueError),
    ([{"objectName": "a", "sessionState": {1: 2}}, {"objectName": "b"}], TypeError),
    ((1, 2), TypeError),
    ({"k": {1, 2}}, TypeError),
]


@pytest.mark.parametrize("tree, error", BAD_TREES)
def test_to_plain_encode_and_validate_node_raise_alike(tree, error):
    for check in (to_plain, encode, validate_node):
        with pytest.raises(error):
            check(tree)


def test_decode_rejects_non_finite_literals():
    with pytest.raises(ValueError):
        decode("NaN")
    with pytest.raises(ValueError):
        decode('{"x":[1,Infinity]}')
    with pytest.raises(ValueError):
        decode("[1e999]")  # beyond the float range: would read as inf
    with pytest.raises(ValueError):
        decode('{"x":-1e400}')


def test_decode_malformed_raises_parse_error():
    with pytest.raises(ParseError):
        decode("{not json")


# --- the shared decoder and encoder -----------------------------------------


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_parse_json_refuses_non_finite_numbers_in_text_and_bytes(number):
    for text in (number, '{"x":[1,' + number + "]}"):
        for given in (text, text.encode("utf-8")):
            with pytest.raises(ValueError):
                parse_json(given)


@pytest.mark.parametrize("codec", ["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32"])
def test_parse_json_decodes_bytes_as_json_loads(codec):
    text = '{"title":"Grüße \\u2603 ☃","size":[1,2.5,null,true]}'
    body = text.encode(codec)
    assert parse_json(body) == json.loads(body) == json.loads(text)
    # a BOM is taken off bytes only, as json.loads does
    with pytest.raises(json.JSONDecodeError):
        parse_json("\ufeff" + text)


@pytest.mark.parametrize("text", ["{not json", "[1,", "", '{"a":1}x'])
def test_bad_json_raises_json_decode_error_and_parse_error(text):
    with pytest.raises(json.JSONDecodeError):
        parse_json(text)
    with pytest.raises(json.JSONDecodeError):
        parse_json(text.encode("utf-8"))
    for parse in (decode, decode_diff):
        with pytest.raises(ParseError):
            parse(text)


def test_parse_json_and_encode_diff_build_no_codec_per_call(monkeypatch):
    built = []
    for cls in (json.JSONDecoder, json.JSONEncoder):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _real=real, **kw: built.append(1) or _real(self, *a, **kw))
    text = encode_diff({"a": [1, 2.5, "é"]})
    assert parse_json(text) == {"a": [1, 2.5, "é"]}
    assert built == []


def test_parse_json_matches_json_loads_over_random_sessions():
    rng = random.Random(18)
    for _ in range(40):
        old = graphops.build_random_session(rng, edits=rng.randint(1, 8)).get_session_state()
        new_root = graphops.build_random_session(rng, edits=rng.randint(1, 8))
        for tree in (old, new_root.get_session_state(), diff(old, new_root.get_session_state())):
            text = encode_diff(tree)
            parsed = parse_json(text)
            assert parsed == json.loads(text)
            assert encode_diff(parsed) == json.dumps(json.loads(text), ensure_ascii=False, separators=(",", ":"))


def test_decode_detects_entry_list():
    node = decode('[{"className":"ex.Counter","objectName":"a","sessionState":{"count":1.0}}]')
    assert node == [entry("a", "ex.Counter", {"count": 1})]
    assert list(node[0]) == ["objectName", "className", "sessionState"]
    assert type(node[0]["sessionState"]["count"]) is int


def test_decode_extra_key_means_plain_sequence():
    node = decode('[{"objectName":"a","other":1}]')
    assert node == [{"objectName": "a", "other": 1}]


def test_decode_empty_array_is_sequence():
    node = decode("[]")
    assert node == [] and type(node) is list


def test_decode_mention_only_entry_is_reference():
    node = decode('[{"objectName":"g"}]')
    assert node == [{"objectName": "g", "className": "", "sessionState": None}]


def test_duplicate_entry_names_rejected():
    twice = [entry("a", "ex.Counter", None), entry("a", "ex.Label", None)]
    with pytest.raises(ValueError):
        decode(json.dumps(twice))
    with pytest.raises(ValueError):
        encode(twice)
    with pytest.raises(ValueError):
        encode({"k": [{"objectName": "a"}, {"objectName": "a", "className": "ex.Counter"}]})
    # Anonymous entries repeat the empty name freely.
    anon = [entry("", "ex.Counter", 1), entry("", "ex.Counter", 2)]
    assert decode(encode(anon)) == anon


# --- equivalence ---------------------------------------------------------------

def test_equivalence_ignores_mapping_key_order():
    assert state_equivalent({"a": 1, "b": 2}, {"b": 2, "a": 1})


def test_equivalence_entry_order_significant():
    a = [entry("x", "ex.Counter", 1), entry("y", "ex.Counter", 2)]
    b = [entry("y", "ex.Counter", 2), entry("x", "ex.Counter", 1)]
    assert not state_equivalent(a, b)


def test_equivalence_type_guards():
    assert not state_equivalent(True, 1)
    assert not state_equivalent(False, 0)
    assert not state_equivalent(None, False)
    assert not state_equivalent(0, None)
    assert state_equivalent(5, 5.0)
    assert not state_equivalent("5", 5)


def test_empty_entry_list_equivalent_to_empty_sequence():
    # One empty array serves both: an emptied entry list is the empty sequence.
    emptied = apply_diff([entry("a", "ex.Counter", 1)], [{"objectName": "a", "__removed__": True}])
    assert emptied == [] and state_equivalent(emptied, [])
    assert diff(emptied, []) == {} and diff([], emptied) == {}


def test_entry_list_equivalent_to_its_wire_form():
    dsl = [entry("a", "ex.Counter", {"count": 1})]
    assert state_equivalent(dsl, json.loads(encode(dsl)))
    # A mention-only entry is a reference entry written short.
    assert state_equivalent([{"objectName": "g"}], [entry("g", "", None)])


# --- diff: frozen cases ----------------------------------------------------------

def test_diff_identity_is_empty():
    for value in (None, True, 7, "s", [1, 2], {"a": {"b": 1}}):
        assert diff(value, value) == {}


def test_diff_key_removal_marker():
    assert diff({"a": 1, "b": 2}, {"a": 1}) == {"b": {"__removed__": True}}


def test_diff_nested_merge_only_changed_keys():
    assert diff({"m": {"x": 1, "y": 2}, "z": 0}, {"m": {"x": 1, "y": 3}, "z": 0}) == {"m": {"y": 3}}


def test_diff_added_mapping_key_wraps_mapping_value():
    assert diff({}, {"m": {"x": 1}}) == {"m": {"__value__": {"x": 1}}}


def test_diff_replacement_of_scalar_by_mapping_wraps():
    assert diff(5, {"a": 1}) == {"__value__": {"a": 1}}


def test_diff_replacement_by_scalar_is_bare():
    assert diff({"a": 1}, 5) == 5
    assert diff([1, 2], [1, 3]) == [1, 3]


def test_diff_entry_removed_plus_mention():
    old = [
        entry("plot1", "ex.Counter", {"count": 2}),
        entry("plot2", "ex.Label", {"text": "t", "size": 12}),
    ]
    new = [entry("plot2", "ex.Label", {"text": "t", "size": 12})]
    assert diff(old, new) == [
        {"objectName": "plot1", "__removed__": True},
        {"objectName": "plot2"},
    ]


def test_diff_entry_state_change_is_partial():
    old = [entry("x", "ex.Label", {"text": "a", "size": 12})]
    new = [entry("x", "ex.Label", {"text": "b", "size": 12})]
    assert diff(old, new) == [
        {"objectName": "x", "className": "ex.Label", "sessionState": {"text": "b"}}
    ]


def test_diff_class_change_carries_full_state():
    old = [entry("x", "ex.Counter", {"count": 1})]
    new = [entry("x", "ex.Label", {"text": ""})]
    assert diff(old, new) == [
        {"objectName": "x", "className": "ex.Label", "sessionState": {"text": ""}}
    ]


def test_diff_reorder_emits_order_marker():
    old = [entry("a", "ex.Counter", 1), entry("b", "ex.Counter", 2)]
    new = [entry("b", "ex.Counter", 2), entry("a", "ex.Counter", 1)]
    assert diff(old, new) == [
        {"objectName": "b"},
        {"objectName": "a"},
        {"__order__": ["b", "a"]},
    ]


def test_an_order_marker_that_repeats_a_name_is_ignored(caplog):
    base = [entry("a", "ex.Counter", 1), entry("b", "ex.Counter", 2)]
    d = [{"objectName": "a"}, {"objectName": "b"}, {"__order__": ["b", "b", "a"]}]
    for remove_missing in (False, True):
        with caplog.at_level(logging.WARNING):
            assert apply_diff(base, d, remove_missing) == base
        assert "ignoring malformed order marker" in caplog.text


def test_an_order_marker_that_names_no_strings_is_ignored(caplog):
    base = [entry("a", "ex.Counter", 1), entry("b", "ex.Counter", 2)]
    with caplog.at_level(logging.WARNING):
        assert apply_diff(base, [{"objectName": "b"}, {"objectName": "a"}, {"__order__": [1, 0]}]) == base[::-1]
    assert "ignoring malformed order marker" in caplog.text


@pytest.mark.parametrize("mention_first", [False, True])
def test_a_removal_wins_over_a_mention_of_its_entry(mention_first):
    base = [entry("a", "ex.Counter", 1), entry("b", "ex.Counter", 2)]
    items = [{"objectName": "a", "__removed__": True}, {"objectName": "a"}]
    d = (items[::-1] if mention_first else items) + [{"objectName": "b"}]
    assert apply_diff(base, d) == [entry("b", "ex.Counter", 2)]


def test_a_removal_onto_no_entry_list_removes_nothing_it_creates():
    d = [entry("x", "ex.Counter", 1), {"objectName": "y", "__removed__": True}]
    assert apply_diff(None, d) == [entry("x", "ex.Counter", 1)]


def test_diff_to_empty_entry_list_is_explicit_removal():
    old = [entry("a", "ex.Counter", 1)]
    d = diff(old, [])
    assert d == [{"objectName": "a", "__removed__": True}]
    assert state_equivalent(apply_diff(old, d), [])
    # Explicit markers remove even when unmentioned entries are retained.
    assert state_equivalent(apply_diff(old, d, remove_missing=False), [])


# --- anonymous entries ---------------------------------------------------------

# Entry lists of up to four named entries (a fifth of them references) and
# up to four anonymous ones, interleaved. treegen makes at most one anonymous
# entry per list, so the corpora above never match a second one.
_MATCH_NAMES = ["a", "b", "c", "d"]
_MATCH_CLASSES = ["ex.Counter", "ex.Label"]


def _match_state(rng):
    return {"count": rng.randrange(3)} if rng.random() < 0.8 else None


def _match_entries(rng):
    out = [
        entry(n, "", None) if rng.random() < 0.2 else entry(n, rng.choice(_MATCH_CLASSES), _match_state(rng))
        for n in rng.sample(_MATCH_NAMES, rng.randint(0, 4))
    ]
    for _ in range(rng.randint(0, 4)):
        out.insert(rng.randint(0, len(out)), entry("", rng.choice(_MATCH_CLASSES), _match_state(rng)))
    return out


def _match_related(rng, a):
    """a with entries dropped, re-classed (a named one maybe to a reference),
    re-stated, added and shuffled."""
    out = []
    for e in a:
        r = rng.random()
        if r < 0.2:
            continue
        name = e["objectName"]
        if r < 0.4:
            e = entry(name, rng.choice(_MATCH_CLASSES + [""] if name else _MATCH_CLASSES), _match_state(rng))
        elif r < 0.6:
            e = entry(name, e["className"], _match_state(rng))
        out.append(e)
    for e in _match_entries(rng):
        if rng.random() < 0.3 and e["objectName"] not in {x["objectName"] for x in out if x["objectName"]}:
            out.insert(rng.randint(0, len(out)), e)
    if rng.random() < 0.3:
        rng.shuffle(out)
    return out


def _match_item(rng):
    """A random entry-diff item over _MATCH_NAMES, an unknown name or none:
    a mention, a removal, a creation or class change, a reference, a
    state-only or class-only item, or an order marker (one in ten repeats
    a name, so it is ignored)."""
    n = rng.choice(_MATCH_NAMES + ["e", "", ""])
    k = rng.randrange(7)
    if k == 0:
        return {"objectName": n}
    if k == 1:
        return {"objectName": n, "__removed__": True}
    if k == 2:
        return entry(n, rng.choice(_MATCH_CLASSES), _match_state(rng))
    if k == 3:
        return entry(n, "", None)
    if k == 4:
        return {"objectName": n, "sessionState": _match_state(rng)}
    if k == 5:
        return {"objectName": n, "className": rng.choice(_MATCH_CLASSES)}
    if rng.random() < 0.1:
        return {"__order__": ["a", "a"]}
    return {"__order__": rng.sample(_MATCH_NAMES + ["e"], rng.randint(0, 4))}


# sha256 over encode_diff(diff(a, b)), one line per pair, and over the
# encoded result (or the exception's type name) of each item list applied
# over a plain base and a built one (None for an empty base) with both
# flags, one line each; recorded before the by-name diff and apply shared
# one key per entry.
ANONYMOUS_MATCH_DIFFS_SHA256 = "dc256d6d39df06f939730e0cd4ec8f855c760a32835db05f3e3550a3329bb8ee"
ANONYMOUS_MATCH_APPLIES_SHA256 = "d4a4e1a3760206519ca6e81a9f2baea3e5a45306b5569d8bf84572a99a345105"


def test_entry_lists_with_several_anonymous_entries_diff_and_apply_as_recorded():
    rng = random.Random(29)
    diffs = hashlib.sha256()
    for i in range(1000):
        a = _match_entries(rng)
        b = _match_related(rng, a) if i % 2 else _match_entries(rng)
        d = diff(a, b)
        for remove_missing in (False, True):
            assert state_equivalent(apply_diff(a, d, remove_missing), b), f"pair {i}"
        diffs.update(encode_diff(d).encode() + b"\n")
    applies = hashlib.sha256()
    for i in range(1000):
        base = _match_entries(rng)
        items = [_match_item(rng) for _ in range(rng.randint(0, 6))]
        for b in (base, _EntryList(to_plain(base)) if base else None):
            for remove_missing in (False, True):
                try:
                    result = encode(apply_diff(b, items, remove_missing))
                except ValueError:  # a repeated name
                    result = "ValueError"
                applies.update(result.encode() + b"\n")
    assert (diffs.hexdigest(), applies.hexdigest()) == (ANONYMOUS_MATCH_DIFFS_SHA256, ANONYMOUS_MATCH_APPLIES_SHA256)


@pytest.mark.xfail(
    strict=True,
    reason="the diff item {name, className: '', sessionState: null} reads as a pure mention, and an anonymous "
    "demotion's removal marker targets the anonymous entry after the mentions, so neither reaches new",
)
@pytest.mark.parametrize(
    "old, new",
    [
        ([entry("x", "", {"count": 1})], [entry("x", "", None)]),
        ([entry("", "ex.Counter", {"count": 1})], [entry("", "", None)]),
        ([entry("", "ex.Counter", {"count": 1})], [entry("", "", {"count": 1})]),
    ],
    ids=["reference-state-to-null", "anonymous-demotion", "anonymous-demotion-keeps-state"],
)
def test_a_diff_to_a_reference_reaches_it(old, new):
    assert state_equivalent(apply_diff(old, diff(old, new)), new)


# --- apply -------------------------------------------------------------------------

def test_apply_empty_diff_is_noop():
    for value in (7, {"a": 1}, [1, 2], [entry("a", "ex.Counter", 1)]):
        assert state_equivalent(apply_diff(value, {}), value)


@pytest.mark.parametrize("remove_missing", [False, True])
def test_apply_retains_unmentioned_mapping_keys(remove_missing):
    assert apply_diff({"a": 1, "b": 2}, {"a": 9}, remove_missing=remove_missing) == {"a": 9, "b": 2}


def test_apply_ignores_unknown_removals():
    assert apply_diff({"a": 1}, {"zzz": {"__removed__": True}}) == {"a": 1}


def test_apply_value_marker_replaces_wholesale():
    assert apply_diff({"a": 1}, {"__value__": {"b": 2}}) == {"b": 2}


def test_apply_on_mismatched_site_materializes():
    assert apply_diff(5, {"x": 1}) == {"x": 1}
    assert apply_diff({"a": 1}, 5) == 5


def test_partial_entry_list_remove_missing_semantics():
    base = [
        entry("a", "ex.Counter", {"count": 1}),
        entry("b", "ex.Label", {"text": "x"}),
    ]
    partial = [{"objectName": "b", "className": "ex.Label", "sessionState": {"text": "y"}}]

    kept = apply_diff(base, partial, remove_missing=False)
    assert state_equivalent(kept, [entry("b", "ex.Label", {"text": "y"}), entry("a", "ex.Counter", {"count": 1})])

    dropped = apply_diff(base, partial, remove_missing=True)
    assert state_equivalent(dropped, [entry("b", "ex.Label", {"text": "y"})])


def test_apply_creates_entry_when_class_present():
    base = []
    partial = [{"objectName": "n", "className": "ex.Counter", "sessionState": {"count": 3}}]
    out = apply_diff(base, partial)
    assert state_equivalent(out, [entry("n", "ex.Counter", {"count": 3})])


def test_apply_skips_bare_mention_of_unknown_entry():
    base = [entry("a", "ex.Counter", 1)]
    out = apply_diff(base, [{"objectName": "ghost"}], remove_missing=False)
    assert state_equivalent(out, base)



@pytest.mark.parametrize("base", [None, 5, {"a": 1}])
def test_an_entry_diff_over_a_base_that_is_no_entry_list_gives_the_entries_it_names(base):
    assert apply_diff(base, [{"objectName": "a"}]) == [entry("a", "", None)]
    created = [{"objectName": "n", "className": "ex.Counter", "sessionState": {"count": 3}}, {"objectName": "a"}]
    assert apply_diff(base, created) == [entry("n", "ex.Counter", {"count": 3}), entry("a", "", None)]
    with pytest.raises(ValueError, match="duplicate entry names"):
        apply_diff(base, [created[0], created[0]])

# --- oracle loops -----------------------------------------------------------------

def _assert_no_empty_subdiff(base, d):
    """Walk d in merge-diff context (guided by base) and reject empty sub-diffs.

    Positions holding verbatim values (replacements, creation entries) are
    skipped; an empty Mapping is a legitimate value there.
    """
    if isinstance(d, dict):
        if "__value__" in d or not isinstance(base, dict):
            return
        for k, v in d.items():
            assert v != {}, f"empty sub-diff at {k!r} inside {d!r}"
            if k in base and not (isinstance(v, dict) and v.get("__removed__") is True):
                _assert_no_empty_subdiff(base[k], v)
    elif isinstance(d, list) and isinstance(base, list):
        by_name = {
            e.get("objectName"): e for e in base if isinstance(e, dict) and e.get("objectName")
        }
        for item in d:
            if not isinstance(item, dict) or "__order__" in item or item.get("__removed__"):
                continue
            partner = by_name.get(item.get("objectName"))
            if partner and item.get("className") == partner.get("className") and "sessionState" in item:
                assert item["sessionState"] != {}, f"empty entry sub-diff in {item!r}"
                _assert_no_empty_subdiff(partner.get("sessionState"), item["sessionState"])


def test_diff_apply_roundtrip_oracle():
    rng = random.Random(20260815)
    for i in range(400):
        a = treegen.random_tree(rng)
        b = treegen.mutate(rng, a) if i % 2 else treegen.random_tree(rng)
        d = diff(a, b)
        assert state_equivalent(apply_diff(a, d), b), f"case {i}"
        assert diff(a, a) == {}
        _assert_no_empty_subdiff(to_plain(a), d)
        back = diff(b, a)
        assert state_equivalent(apply_diff(b, back), a), f"case {i} backward"
        # Generated diffs mention every survivor, so the flag has no effect.
        assert state_equivalent(apply_diff(a, d, remove_missing=True), b), f"case {i} strict"


def test_encode_decode_roundtrip_oracle():
    rng = random.Random(7)
    for _ in range(300):
        t = treegen.random_tree(rng)
        text = encode(t)
        again = decode(text)
        assert state_equivalent(again, t)
        assert encode(again) == text
