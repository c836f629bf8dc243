"""A canonical tree is checked, not copied.

encode, validate_node, decode and state_equivalent copy a tree (to_plain)
only where it is not canonical already; the answers, and every error's
class and message, are those of the copy.
"""

import hashlib
import math
import random
import sys

import pytest

import graphops
import treegen
from linkstate import cli, history, linkable, statetree
from linkstate.history import _built
from linkstate.linkable import LinkableVariable
from linkstate.statetree import _EntryList, _is_canonical, decode, encode, state_equivalent, to_plain, validate_node
from treegen import entry


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


def _nested(depth, leaf, wrap):
    node = leaf
    for _ in range(depth):
        node = wrap(node)
    return node


def _hand_made():
    yield from (5.0, -0.0, 0.5, 1e300, -1e300, math.nan, math.inf, -math.inf, 0, -7, True, False, None, "", "é")
    yield from ([5.0], {"x": -0.0}, {"x": [1.5, 2.0]}, {"x": math.nan}, [math.inf], {"x": {"y": -math.inf}})
    yield from ({1: 2}, {True: 1}, {None: 1}, {"a": 1, 2: 3}, {(1,): 1})
    yield from ((1, 2), {1, 2}, {"x": (1,)}, [{1}], frozenset(), b"x", object)
    yield from (_Str("s"), _Int(3), _Dict(a=1), _List([1, 2]), {"x": _Str("s")}, [_Int(3)], {"x": _Dict()})
    yield from ({_Str("k"): 1}, [_List()], _Dict({1: 2}))
    yield [entry("a", "ex.Counter", {"count": 1})]
    yield [{"className": "ex.Counter", "objectName": "a", "sessionState": 1}]
    yield [{"objectName": "a", "sessionState": 1, "className": "ex.Counter"}]
    yield [{"objectName": "a", "className": "ex.Counter"}]
    yield [{"objectName": "a"}, {"className": "ex.Label"}]
    yield [{"sessionState": 1, "objectName": "a"}]
    yield [entry("a", "ex.Counter", 1), entry("a", "ex.Label", 2)]
    yield [entry("", "ex.Counter", 1), entry("", "ex.Label", 2)]
    yield [entry("a", "ex.Counter", 5.0), entry("b", "", None)]
    yield [entry("a", "ex.Counter", math.nan)]
    yield [entry("a", "ex.Counter", {1: 1})]
    yield [entry(_Str("a"), "ex.Counter", 1)]
    yield [_Dict(entry("a", "ex.Counter", 1))]
    yield [entry("a", "ex.Counter", 1), {"objectName": 3}]
    yield [entry("a", "ex.Counter", 1), 1]
    yield {"s": [entry("a", "ex.Plot", [entry("b", "ex.Label", 1), entry("b", "ex.Label", 2)])]}
    yield {"s": [entry("a", "ex.Plot", [entry("b", "ex.Label", 1), {"sessionState": 2.0, "objectName": "c"}])]}
    yield [entry("a", "ex.Plot", {"x": [entry("c", "ex.Counter", {"count": 2.0})]})]
    yield _EntryList([entry("a", "ex.Counter", 1), entry("b", "", None)])
    yield _EntryList([entry("a", "ex.Counter", 1), entry("a", "ex.Counter", 2)])
    yield _EntryList([{"sessionState": 1, "objectName": "a", "className": "ex.Counter"}])
    yield _EntryList([{"objectName": "a", "className": "ex.Counter"}])
    yield _EntryList([entry("a", "ex.Counter", 5.0)])
    yield _EntryList([entry("a", "ex.Counter", math.inf)])
    yield _EntryList()
    yield _List([entry("a", "ex.Counter", 1)])
    yield _nested(10, 5.0, lambda x: [x, {"k": x}])
    yield _nested(150, 1, lambda x: [x])
    yield _nested(150, 1.5, lambda x: {"k": x})
    yield _nested(150, 5.0, lambda x: {"k": x})
    yield _nested(120, 1, lambda x: [entry("a", "ex.Counter", x)])


def _past_the_recursion_limit():
    deep = sys.getrecursionlimit() + 100
    yield _nested(deep, 1, lambda x: [x])
    yield _nested(deep, 1, lambda x: {"k": x})
    yield _nested(deep, 1.5, lambda x: [entry("a", "ex.Counter", x)])


def _generated():
    rng = random.Random(30)
    for _ in range(150):
        t = treegen.random_tree(rng)
        yield t
        yield to_plain(t)
        yield _built(to_plain(t))
        yield treegen.mutate(rng, t)
    for i in range(6):
        root = graphops.build_random_session(random.Random(i), edits=10)
        yield root._snapshot()
        yield root.get_session_state()
        yield root.get_session_state()[0] if root.get_session_state() else []


def _result(f, *args):
    try:
        out = f(*args)
    except RecursionError:
        # Its message names the call that met the interpreter's limit,
        # which depends on how deep the caller's stack already was.
        return "RecursionError"
    except Exception as e:  # the exception's class and message are the answer
        return f"{type(e).__name__}: {e}"
    return f"{type(out).__name__} {out!r}"


# sha256 over one line per input of the results of encode(x),
# validate_node(x), decode(encode(x)), state_equivalent(x, x) and
# state_equivalent(x, previous input), each the value or the exception's
# class and message (a RecursionError's class alone); recorded while every
# one of them copied its input. The inputs past the recursion limit come
# last: under a line trace, the trace call that meets the limit turns the
# trace off for the rest of the test.
CANONICAL_PIN_SHA256 = "28e31bd3b2500e1207d7d60c9d057f158db334778ea721ece45fac7c71e30661"


def test_checking_a_tree_answers_as_copying_it_did():
    h = hashlib.sha256()
    prev = None
    for i, x in enumerate([*_hand_made(), *_generated(), *_past_the_recursion_limit()]):
        results = (
            _result(encode, x),
            _result(validate_node, x),
            _result(lambda: decode(encode(x))),
            _result(state_equivalent, x, x),
            _result(state_equivalent, x, prev),
        )
        h.update((f"{i}\t" + "\t".join(results) + "\n").encode())
        prev = x
    assert h.hexdigest() == CANONICAL_PIN_SHA256


def _typed(x):
    """x with the exact type of every node; a built list counts as a list."""
    t = list if type(x) is _EntryList else type(x)
    if t is dict:
        return dict, [(type(k), k, _typed(v)) for k, v in x.items()]
    if t is list:
        return list, [_typed(v) for v in x]
    return t, x


def test_the_check_holds_exactly_where_the_copy_gives_the_tree_back():
    checked = 0
    # Three-key dicts whose name or class is no str are no entries: their
    # list is checked as a plain list, as to_plain copies it.
    no_entries = [{"objectName": "a", "className": 1, "sessionState": 5.5}], [entry(None, "ex.Counter", [])]
    for x in [*_hand_made(), *_generated(), *no_entries]:
        try:
            copy = to_plain(x)
        except (TypeError, ValueError):
            assert not _is_canonical(x)
            continue
        if _is_canonical(x):
            assert _typed(x) == _typed(copy)
            checked += 1
        # A copy is canonical unless it keeps a str or int subclass, as
        # to_plain does, repeats a name that a built list held, or nests too
        # deep for the check to walk.
        try:
            to_plain(copy)
        except ValueError:
            assert type(x) is _EntryList and not _is_canonical(copy)
            continue
        assert _is_canonical(copy) or _depth(copy) > 100 or not _exact(copy)
    assert checked > 300
    for x in _past_the_recursion_limit():
        assert _is_canonical(x) is False  # it stops short of the limit and leaves the error to to_plain


def _depth(x):
    if isinstance(x, (dict, list)):
        return 1 + max(map(_depth, x.values() if isinstance(x, dict) else x), default=0)
    return 0


def _exact(x):
    if type(x) is dict:
        return all(type(k) is str and _exact(v) for k, v in x.items())
    if type(x) is list:
        return all(map(_exact, x))
    return type(x) in (str, int, float, bool, type(None))


def _count_outermost(monkeypatch, names):
    """Calls of each named statetree function made while no other call of
    it runs: for to_plain, one per copy of a tree, however large."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(statetree, name)
        depth = [0]

        def counted(*args, _real=real, _name=name, _depth=depth):
            _depth[0] += 1
            calls[_name] += _depth[0] == 1
            try:
                return _real(*args)
            finally:
                _depth[0] -= 1

        for module in (statetree, linkable, history, cli):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", [500, 5000])
def test_a_save_copies_the_tree_once(monkeypatch, n):
    root = graphops.new_root()
    for i in range(n):
        root.request_object(f"plot{i:05d}", "ex.Plot")
    expected = encode(to_plain(root._snapshot()))
    calls = _count_outermost(monkeypatch, ["to_plain"])
    state = root.get_session_state()  # the copy get_session_state owes
    assert encode(state) == expected
    assert calls == {"to_plain": 1}
    assert encode(state) == expected  # a canonical tree is written as it is
    assert calls == {"to_plain": 1}


def test_setting_a_variable_to_a_list_copies_it_once_and_encodes_nothing(monkeypatch):
    v = LinkableVariable([])
    value = [{"i": i, "name": f"item {i}"} for i in range(1000)]
    calls = _count_outermost(monkeypatch, ["to_plain", "encode_diff"])
    v.set_state(value)
    # the apply's copy of the new list; the reach keeps that copy itself
    assert calls == {"to_plain": 1, "encode_diff": 0}
    assert v.get_state() == value and v._snapshot() is v._value
