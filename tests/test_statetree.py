"""Codec, equivalence, diff and patch for session-state value trees."""

import json
import logging
import random

import pytest

import graphops
import treegen
from treegen import entry
from linkstate.errors import ParseError
from linkstate.statetree import (
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


def test_diff_to_empty_entry_list_is_explicit_removal():
    old = [entry("a", "ex.Counter", 1)]
    d = diff(old, [])
    assert d == [{"objectName": "a", "__removed__": True}]
    assert state_equivalent(apply_diff(old, d), [])
    # Explicit markers remove even when unmentioned entries are retained.
    assert state_equivalent(apply_diff(old, d, remove_missing=False), [])


# --- apply -------------------------------------------------------------------------

def test_apply_empty_diff_is_noop():
    for value in (7, {"a": 1}, [1, 2], [entry("a", "ex.Counter", 1)]):
        assert state_equivalent(apply_diff(value, {}), value)


def test_apply_retains_unmentioned_mapping_keys():
    assert apply_diff({"a": 1, "b": 2}, {"a": 9}) == {"a": 9, "b": 2}


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
