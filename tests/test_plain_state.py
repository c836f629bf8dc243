"""One state form: every public result is plain JSON in canonical form.

Plain JSON means exact dicts, lists, str, int, float, bool and None; no
subclass, no other type. Canonical means integral floats are ints and every
entry of an entry list carries objectName, className and sessionState in
that order, so json.dumps of the tree is its encoding.
"""

import json
import random

import pytest

import graphops
from linkstate import history
from linkstate.linkable import LinkableVariable
from linkstate.statetree import (
    RESERVED_ENTRY_KEYS,
    apply_diff,
    decode,
    diff,
    encode,
    state_equivalent,
    validate_node,
)
from treegen import entry

ENTRY_KEYS = ["objectName", "className", "sessionState"]


def _assert_canonical(node, where=""):
    t = type(node)
    assert t in (dict, list, str, int, float, bool, type(None)), f"{where}: {t.__name__}"
    if t is float:
        assert not node.is_integer(), f"{where}: integral float {node!r}"
    elif t is dict:
        for k, v in node.items():
            assert type(k) is str, f"{where}: key {k!r}"
            _assert_canonical(v, f"{where}/{k}")
    elif t is list:
        is_entries = node and all(
            type(e) is dict and e.keys() <= RESERVED_ENTRY_KEYS and ("objectName" in e or "className" in e)
            for e in node
        )
        for i, e in enumerate(node):
            if is_entries:
                assert list(e) == ENTRY_KEYS, f"{where}[{i}]: entry keys {list(e)}"
            _assert_canonical(e, f"{where}[{i}]")


def _assert_plain_json(node, where):
    _assert_canonical(node, where)
    assert json.dumps(node, ensure_ascii=False, separators=(",", ":")) == encode(node), where


def _session(seed):
    rng = random.Random(seed)
    root = graphops.build_random_session(rng, edits=12)
    root.scheduler.flush_frame()
    log = history.HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    for _ in range(6):
        graphops.random_edit(rng, root)
        root.scheduler.flush_frame()
    return root, log


@pytest.mark.parametrize("seed", range(5))
def test_live_history_and_codec_results_are_plain_json(seed):
    root, log = _session(seed)
    state = root.get_session_state()
    _assert_plain_json(state, "get_session_state")
    _assert_plain_json(log.baseline, "baseline")
    for k in range(len(log.steps) + 1):
        _assert_plain_json(log.state_at(k), f"state_at({k})")
    imported = history.HistoryLog.import_json(log.export_json())
    _assert_plain_json(imported.baseline, "imported baseline")
    _assert_plain_json(imported.state_at(len(log.steps)), "imported state_at")
    _assert_plain_json(decode(encode(state)), "decode")
    base = log.state_at(0)
    _assert_plain_json(apply_diff(base, diff(base, state)), "apply_diff")
    _assert_plain_json(apply_diff(base, diff(base, state), remove_missing=True), "apply_diff strict")


def test_public_results_are_plain_lists_even_where_the_source_is_a_built_list():
    # Snapshots and applies build entry lists of a private list subclass
    # that vouches for their shape; no public result is one.
    root, log = _session(1)
    snap = root._snapshot()
    assert isinstance(snap, list) and type(snap) is not list and snap
    mentions = [{"objectName": e["objectName"]} for e in snap]
    results = {
        "get_session_state": root.get_session_state(),
        "apply_diff": apply_diff(snap, mentions),
        "apply_diff strict": apply_diff(snap, diff([], snap), remove_missing=True),
        "decode": decode(encode(snap)),
        "state_at": log.state_at(len(log.steps)),
        "baseline": log.baseline,
    }
    for where, value in results.items():
        assert type(value) is list, where
        _assert_plain_json(value, where)


def test_short_and_float_written_entries_come_back_canonical():
    short = '[{"objectName":"g"},{"sessionState":{"n":2.0},"className":"ex.Counter","objectName":"c"}]'
    node = decode(short)
    _assert_plain_json(node, "decode")
    assert node == [entry("g", "", None), entry("c", "ex.Counter", {"n": 2})]
    _assert_plain_json(apply_diff([], json.loads(short)), "apply_diff")


def test_variable_holding_an_entry_list_hands_out_canonical_copies():
    v = LinkableVariable(default=[{"objectName": "g"}])
    _assert_plain_json(v.get_state(), "default")
    assert v.get_state() == [entry("g", "", None)]
    v.set_state([{"className": "ex.Counter", "objectName": "c", "sessionState": 5.0}])
    _assert_plain_json(v.get_state(), "after set_state")
    assert v.get_state() == [entry("c", "ex.Counter", 5)]
    assert v.get_state() is not v.get_state()
    v.set_state(5.0)
    assert v.get_state() == 5 and type(v.get_state()) is int


def test_duplicate_entry_names_are_rejected_everywhere():
    e = entry("a", "ex.Counter", {"count": 1})
    twice = [e, dict(e)]
    checks = (
        validate_node,
        encode,
        lambda x: decode(json.dumps(x)),
        lambda x: LinkableVariable(default=x),
        lambda x: diff(x, []),
        lambda x: diff([], x),
        lambda x: state_equivalent(x, x),
    )
    for check in checks:
        with pytest.raises(ValueError):
            check(twice)
        with pytest.raises(ValueError):
            check({"k": twice})
