"""The one-walk record diff and the positional entry apply equal the general paths.

A history record takes both diffs of a snapshot pair from one walk
(statetree._diff_both), and an entry diff that names a built base's entries
in their own order applies in one pass (the head of _apply_entry_diff), as
does a live hash map whose children are all mentioned in order
(LinkableHashMap._set_items). Each must give exactly what the general path
gives: the same diff bytes, the same applied tree, the same children and
the same triggers.
"""

import random

import pytest

import graphops
import treegen
from linkstate import dynamic, statetree
from linkstate.statetree import (
    _apply_entry_diff,
    _apply_entry_diff_by_name,
    _diff_both,
    _diff_plain,
    _entry_diff,
    _EntryList,
    _is_entry_list,
    encode_diff,
    to_plain,
)


def _built(node):
    """node with every entry list an _EntryList, as snapshots and applies build them."""
    if isinstance(node, dict):
        return {k: _built(v) for k, v in node.items()}
    if isinstance(node, list):
        out = [_built(x) for x in node]
        return _EntryList(out) if _is_entry_list(node) else out
    return node


def _e(name, cls="ex.Counter", state=None):
    return {"objectName": name, "className": cls, "sessionState": state}


_X, _Y, _Z = _e("x", state={"count": 1}), _e("y", state={"count": 2}), _e("z", "ex.Label", {"text": "t"})
_ANON = _e("", "ex.Counter", {"count": 3})

# Built entry-list pairs: identical, equal copies, anonymous entries, reorder,
# add, remove, class change, demotion to a reference and back, and entries
# that differ only in which keys they write.
HAND_PAIRS = [
    (_EntryList([_X, _Y]), _EntryList([_X, _Y])),
    (_EntryList([_X, _Y]), _built(to_plain([_X, _Y]))),
    (_EntryList([_X, _ANON]), _EntryList([_X, _e("", "ex.Counter", {"count": 4})])),
    (_EntryList([_ANON, _e("", "ex.Label", None)]), _EntryList([_e("", "ex.Label", None), _ANON])),
    (_EntryList([_X, _Y, _Z]), _EntryList([_Y, _X, _Z])),
    (_EntryList([_X, _Y]), _EntryList([_X, _Y, _Z])),
    (_EntryList([_X, _Y, _Z]), _EntryList([_X, _Z])),
    (_EntryList([_X, _Y]), _EntryList([_X, _e("y", "ex.Label", {"text": ""})])),
    (_EntryList([_X, _Y]), _EntryList([_X, _e("y", "", None)])),
    (_EntryList([_X, _e("y", "", None)]), _EntryList([_X, _Y])),
    (_EntryList([_X, {"objectName": "y", "className": "ex.Counter"}]), _EntryList([_X, _e("y")])),
    (_EntryList([{"objectName": "y"}]), _EntryList([{"objectName": "y", "className": ""}])),
    (_EntryList([_X, _Y]), _EntryList([_e("x", state={"count": 1, "more": [1, 2]}), _Y])),
    (_EntryList([_X, _Y]), _EntryList([_Y, _e("w")])),
    (_EntryList([_X]), _EntryList()),
    (_EntryList(), _EntryList()),
    (_EntryList([_X]), [_X]),
    ({"a": _EntryList([_X])}, {"a": _EntryList([_Y])}),
]


def _graph_pairs():
    for seed in range(40):
        rng = random.Random(seed)
        root = graphops.new_root()
        before = root._snapshot()
        for _ in range(12):
            graphops.random_edit(rng, root)
            after = root._snapshot()
            yield before, after
            yield before, to_plain(after)
            before = after


def _tree_pairs():
    rng = random.Random(9)
    for _ in range(300):
        a = treegen.random_dsl(rng, depth=3)
        yield _built(to_plain(a)), _built(to_plain(treegen.mutate(rng, a)))
        yield _built(to_plain(a)), _built(to_plain(a))


def _all_pairs():
    yield from HAND_PAIRS
    yield from _graph_pairs()
    yield from _tree_pairs()


def _same(x, y):
    return x == y and encode_diff(x) == encode_diff(y)


# --- one walk for both diffs of a record --------------------------------------------


def test_one_walk_gives_both_diffs_exactly():
    for i, (a, b) in enumerate(_all_pairs()):
        fwd, bwd = _diff_both(a, b)
        assert _same(fwd, _diff_plain(a, b)), f"pair {i}"
        assert _same(bwd, _diff_plain(b, a)), f"pair {i}"


def test_an_identical_pair_answers_at_once(monkeypatch):
    # The record after an undo diffs the snapshot against itself: no entry
    # may be walked, not even for its mention.
    snap = _EntryList([_X, _Y, _Z])
    walked = []
    monkeypatch.setattr(statetree, "zip", lambda *a: walked.append(a) or zip(*a), raising=False)
    monkeypatch.setattr(statetree, "_diff_plain", lambda *a: walked.append(a) or _diff_plain(*a))
    assert _diff_both(snap, snap) == ({}, {})
    assert walked == []
    assert _diff_both(snap, _EntryList(snap)) == ({}, {})
    assert walked


def test_unchanged_entries_share_their_mention():
    a = _EntryList([_X, _Y, _Z])
    b = _EntryList([_X, _e("y", state={"count": 5}), _Z])
    fwd, bwd = _diff_both(a, b)
    assert fwd[0] is bwd[0] and fwd[2] is bwd[2]
    assert fwd[1] == {"objectName": "y", "className": "ex.Counter", "sessionState": {"count": 5}}
    assert bwd[1] == {"objectName": "y", "className": "ex.Counter", "sessionState": {"count": 2}}


# --- apply by position ---------------------------------------------------------------------

# Items over _EntryList([_X, _ANON, _Z]): every entry named in place (pure
# mentions, a state patch, a class change, a reference item, an anonymous
# patch), then lists the head must hand over: a removal, a reorder, a
# creation, an order marker, a mention of an unknown name, too few items.
HAND_DIFFS = [
    [{"objectName": "x"}, {"objectName": "", "className": "ex.Counter"}, {"objectName": "z"}],
    [{"objectName": "x", "sessionState": {"count": 9}}, {"className": "ex.Counter", "sessionState": {"count": 8}},
     {"objectName": "z"}],
    [{"objectName": "x"}, {"className": "ex.Label", "sessionState": {"text": "n"}},
     {"objectName": "z", "className": "ex.Counter", "sessionState": {"count": 0}}],
    [{"objectName": "x", "className": "", "sessionState": None}, {"className": "ex.Counter"}, {"objectName": "z"}],
    [{"objectName": "x", "className": "", "sessionState": {"count": 7}}, {"className": ""}, {"objectName": "z"}],
    [{"objectName": "x"}, {"className": "ex.Counter"}, {"objectName": "z", "__removed__": True}],
    [{"objectName": "z"}, {"className": "ex.Counter"}, {"objectName": "x"}],
    [{"objectName": "x"}, {"className": "ex.Counter"}, {"objectName": "w", "className": "ex.Counter"}],
    [{"objectName": "x"}, {"className": "ex.Counter"}, {"objectName": "z"}, {"__order__": ["z", "x"]}],
    [{"objectName": "x"}, {"className": "ex.Counter"}, {"objectName": "q"}],
    [{"objectName": "x"}, {"objectName": "z"}],
    [{"objectName": "x", "__removed__": True}, {"objectName": "x", "className": "ex.Label"}, {"objectName": "z"}],
]


def _apply_cases():
    base = _EntryList([_X, _ANON, _Z])
    for d in HAND_DIFFS:
        yield base, d
    for a, b in _all_pairs():
        if type(a) is _EntryList:
            for d in (_diff_plain(a, b), [{"objectName": e["objectName"]} for e in a if e["objectName"]]):
                if _entry_diff(d) is not None:
                    yield a, d


def _outcome(fn, base, parsed, remove_missing):
    try:
        out = fn(base, *parsed, remove_missing)
    except ValueError as e:
        return ("raises", str(e))
    return type(out), encode_diff(out), [any(x is y for y in base) for x in out]


def test_apply_by_position_equals_apply_by_name():
    n = 0
    for i, (base, d) in enumerate(_apply_cases()):
        parsed = _entry_diff(d)
        for remove_missing in (False, True):
            got = _outcome(_apply_entry_diff, base, parsed, remove_missing)
            assert got == _outcome(_apply_entry_diff_by_name, base, parsed, remove_missing), f"case {i}"
        n += 1
    assert n > 500


def test_the_head_takes_the_common_diff_and_hands_over_the_rest(monkeypatch):
    calls = []
    real = _apply_entry_diff_by_name
    monkeypatch.setattr(
        "linkstate.statetree._apply_entry_diff_by_name", lambda *a: calls.append(1) or real(*a)
    )
    base = _EntryList([_X, _ANON, _Z])
    handed_over = []
    for d in HAND_DIFFS:
        calls.clear()
        _apply_entry_diff(base, *_entry_diff(d), True)
        handed_over.append(len(calls))
    assert handed_over == [0] * 5 + [1] * 7


# --- the live hash map: every child mentioned in order -------------------------------------


def _root_from(state):
    root = graphops.new_root()
    root.set_session_state(to_plain(state))
    root.scheduler.flush_frame()
    return root


def _set_and_watch(root, parsed, remove_missing):
    before = (root.callbacks.trigger_counter, root.child_list_callbacks.trigger_counter)
    root._set_items(*parsed, remove_missing)
    root.scheduler.flush_frame()
    after = (root.callbacks.trigger_counter, root.child_list_callbacks.trigger_counter)
    return (
        root.get_names(),
        [root.get_class_name(n) for n in root.get_names()],
        encode_diff(root._snapshot()),
        [b - a for a, b in zip(before, after)],
    )


@pytest.mark.parametrize("seed", range(8))
def test_items_in_child_order_leave_what_the_general_path_leaves(monkeypatch, seed):
    rng = random.Random(seed)
    source = graphops.new_root()
    for _ in range(6):
        graphops.random_edit(rng, source)
    for step in range(12):
        a = source._snapshot()
        graphops.random_edit(rng, source)
        b = source._snapshot()
        names = [e["objectName"] for e in a]
        in_order = [{"objectName": n} for n in names]
        diffs = [_diff_plain(a, b), in_order, in_order[::-1], in_order + [{"__order__": names[::-1]}]]
        for d in diffs:
            parsed = _entry_diff(d)
            if parsed is None:
                continue
            for remove_missing in (False, True):
                fast = _set_and_watch(_root_from(a), parsed, remove_missing)
                monkeypatch.setattr(dynamic, "_in_child_order", lambda *args: False)
                general = _set_and_watch(_root_from(a), parsed, remove_missing)
                monkeypatch.undo()
                assert fast == general, f"seed {seed} step {step}"
