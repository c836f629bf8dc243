"""The line trace (line_trace.py) over a toy package and its toy tests: it
reports exactly the runnable lines no test ran, also after a test that
recursed to the limit and so made Python unset the trace, and the
conditions decided only one way, with a `while` test's two compiled
copies as one condition, no condition for `except` matching or a `with`
exit, and a jump with an EXTENDED_ARG prefix seen as it went; its gate
fails wherever those and the allow-list disagree."""

import sys

import pytest

from line_trace import gate, run, runnable_lines, undecided

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="the trace reads co_positions, new in Python 3.11")

TOY = '''\
def used(x):
    if x:
        return 1
    return 2


def deep(n):
    return deep(n + 1)


def later(a, b):
    y = a or b
    return y


def never(x):
    if x:
        return 4


def loop(n):
    while n > 0:
        n -= 1
    return n


def guarded(d, lock):
    try:
        with lock:
            return d["k"]
    except KeyError:
        return None
'''

TOY_TESTS = '''\
import threading

import pytest

import toy_traced


def test_used():
    assert toy_traced.used(True) == 1


def test_deep():
    with pytest.raises(RecursionError):
        toy_traced.deep(0)


def test_later():
    assert toy_traced.later(0, 3) == 3
    assert toy_traced.later(1, 0) == 1


def test_loop():
    # the test before the loop sees n > 0 true, the one after it false
    assert toy_traced.loop(1) == 0


def test_guarded():
    # the key error leaves the with block and matches the except clause
    assert toy_traced.guarded({}, threading.Lock()) is None
'''


def _trace(tmp_path, toy_source, tests_source):
    """A toy module toy_traced of toy_source traced over the tests in
    tests_source: its path, the trace's pytest exit code, its unreached
    lines and the conditions on its reached lines."""
    package = tmp_path / "pkg"
    package.mkdir()
    toy = package / "toy_traced.py"
    toy.write_text(toy_source)
    tests = tmp_path / "test_toy_traced.py"
    tests.write_text(tests_source)
    sys.path.insert(0, str(package))
    try:
        code, unreached, conds = run(["-q", "-p", "no:cacheprovider", "--rootdir", str(tmp_path), str(tests)], package)
    finally:
        sys.path.remove(str(package))
        sys.modules.pop("toy_traced", None)
        sys.modules.pop("test_toy_traced", None)
    return toy, code, unreached, conds


@pytest.fixture(scope="module")
def toy_trace(tmp_path_factory):
    return _trace(tmp_path_factory.mktemp("toy"), TOY, TOY_TESTS)


def test_the_trace_reports_only_the_lines_no_test_ran_even_after_a_recursion_to_the_limit(toy_trace):
    toy, code, unreached, _ = toy_trace
    # the def and return lines of each function, each if, while and try
    assert runnable_lines(toy) == {1, 2, 3, 4, 7, 8, 11, 12, 13, 16, 17, 18, 21, 22, 23, 24, 27, 28, 29, 30, 31, 32}
    assert code == 0
    # the trace was off after test_deep, and on again for the later tests
    assert unreached == {toy.resolve(): [4, 17, 18]}


def test_the_trace_records_the_values_each_condition_on_a_reached_line_took(toy_trace):
    _, _, _, conds = toy_trace
    assert [(c.line, c.segment, c.seen_as()) for c in conds] == [(2, "x", "true"), (12, "a", "both ways"), (22, "n > 0", "both ways")]
    assert [(c.line, c.segment) for c in undecided(conds)] == [(2, "x")]


def test_a_while_test_is_one_condition_over_its_two_compiled_copies(toy_trace):
    # each copy alone went one way: the first true, the second false
    _, _, _, conds = toy_trace
    assert [c.seen for c in conds if c.segment == "n > 0"] == [[True, True]]


def test_except_matching_and_with_exits_are_no_conditions(toy_trace):
    _, _, _, conds = toy_trace
    assert not [c for c in conds if c.line >= 27]


def _allowed(*sources, conditions=(("if x:", "x", "true"),)):
    return [{"file": "toy_traced.py", "source": text, "reason": "toy"} for text in sources] + [
        {"file": "toy_traced.py", "source": text, "segment": segment, "value": value, "reason": "toy"}
        for text, segment, value in conditions
    ]


def _gate(toy_trace, allowed):
    toy, _, unreached, conds = toy_trace
    return gate(unreached, conds, allowed, toy.parent)


def test_the_gate_passes_when_the_allow_list_names_exactly_the_unreached_lines(toy_trace):
    # _allowed names the one undecided condition by default
    assert _gate(toy_trace, _allowed("return 2", "if x:", "return 4")) == []


def test_the_gate_fails_on_an_unreached_line_the_allow_list_does_not_name(toy_trace):
    assert _gate(toy_trace, _allowed("return 2", "if x:")) == ["unreached and not allowed: toy_traced.py:18  return 4"]


def test_the_gate_fails_on_a_listed_line_that_is_reached(toy_trace):
    problems = _gate(toy_trace, _allowed("return 2", "if x:", "return 4", "return y"))
    assert problems == ["allowed but reached: toy_traced.py  return y"]


def test_the_gate_fails_on_a_listed_line_whose_source_is_gone(toy_trace):
    problems = _gate(toy_trace, _allowed("return 2", "if x:", "return 4", "return 5"))
    assert problems == ["allowed but gone: toy_traced.py  return 5"]


def test_the_gate_fails_on_an_undecided_condition_the_allow_list_does_not_name(toy_trace):
    problems = _gate(toy_trace, _allowed("return 2", "if x:", "return 4", conditions=()))
    assert problems == ["undecided and not allowed: toy_traced.py:2  if x:  [x] seen only true"]


def test_the_gate_fails_on_a_listed_condition_that_is_seen_both_ways(toy_trace):
    conditions = (("if x:", "x", "true"), ("y = a or b", "a", "true"))
    problems = _gate(toy_trace, _allowed("return 2", "if x:", "return 4", conditions=conditions))
    assert problems == ["allowed but seen both ways: toy_traced.py  y = a or b  [a] true"]


def test_the_gate_fails_on_a_listed_condition_that_is_gone(toy_trace):
    conditions = (("if x:", "x", "true"), ("y = a or b", "b", "true"))
    problems = _gate(toy_trace, _allowed("return 2", "if x:", "return 4", conditions=conditions))
    assert problems == ["allowed but gone: toy_traced.py  y = a or b  [b] true"]


def test_a_condition_whose_jump_has_an_extended_arg_prefix_is_seen_both_ways(tmp_path):
    # the jump over 120 statements needs an EXTENDED_ARG prefix, where its
    # opcode event fires
    toy = "def long_if(x):\n    n = 0\n    if x:\n" + "        n += 1\n" * 120 + "    return n\n"
    tests = "import toy_traced\n\n\ndef test_long_if():\n    assert toy_traced.long_if(0) == 0\n    assert toy_traced.long_if(1) == 120\n"
    _, code, unreached, conds = _trace(tmp_path, toy, tests)
    assert code == 0 and unreached == {}
    assert [(c.line, c.segment, c.seen_as()) for c in conds] == [(3, "x", "both ways")]
