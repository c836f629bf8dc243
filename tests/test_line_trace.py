"""The line trace (line_trace.py) over a toy package and its toy tests: it
reports exactly the runnable lines no test ran, also after a test that
recursed to the limit and so made Python unset the trace, and its gate
fails wherever those lines and the allow-list disagree."""

import sys

import pytest

from line_trace import gate, run, runnable_lines

TOY = '''\
def used(x):
    if x:
        return 1
    return 2


def deep(n):
    return deep(n + 1)


def later():
    y = 3
    return y


def never():
    return 4
'''

TOY_TESTS = '''\
import pytest

import toy_traced


def test_used():
    assert toy_traced.used(True) == 1


def test_deep():
    with pytest.raises(RecursionError):
        toy_traced.deep(0)


def test_later():
    assert toy_traced.later() == 3
'''


@pytest.fixture(scope="module")
def toy_trace(tmp_path_factory):
    """The toy module's path, the trace's pytest exit code and its
    unreached lines."""
    tmp_path = tmp_path_factory.mktemp("toy")
    package = tmp_path / "pkg"
    package.mkdir()
    toy = package / "toy_traced.py"
    toy.write_text(TOY)
    tests = tmp_path / "test_toy_traced.py"
    tests.write_text(TOY_TESTS)
    sys.path.insert(0, str(package))
    try:
        code, unreached = run(["-q", "-p", "no:cacheprovider", "--rootdir", str(tmp_path), str(tests)], package)
    finally:
        sys.path.remove(str(package))
        sys.modules.pop("toy_traced", None)
    return toy, code, unreached


def test_the_trace_reports_only_the_lines_no_test_ran_even_after_a_recursion_to_the_limit(toy_trace):
    toy, code, unreached = toy_trace
    # the def and return lines of each function, the if of used
    assert runnable_lines(toy) == {1, 2, 3, 4, 7, 8, 11, 12, 13, 16, 17}
    assert code == 0
    # the trace was off after test_deep, and on again for test_later
    assert unreached == {toy.resolve(): [4, 17]}


def _allowed(*sources):
    return [{"file": "toy_traced.py", "source": text, "reason": "toy"} for text in sources]


def test_the_gate_passes_when_the_allow_list_names_exactly_the_unreached_lines(toy_trace):
    toy, _, unreached = toy_trace
    assert gate(unreached, _allowed("return 2", "return 4"), toy.parent) == []


def test_the_gate_fails_on_an_unreached_line_the_allow_list_does_not_name(toy_trace):
    toy, _, unreached = toy_trace
    assert gate(unreached, _allowed("return 2"), toy.parent) == ["unreached and not allowed: toy_traced.py:17  return 4"]


def test_the_gate_fails_on_a_listed_line_that_is_reached(toy_trace):
    toy, _, unreached = toy_trace
    problems = gate(unreached, _allowed("return 2", "return 4", "return y"), toy.parent)
    assert problems == ["allowed but reached: toy_traced.py  return y"]


def test_the_gate_fails_on_a_listed_line_whose_source_is_gone(toy_trace):
    toy, _, unreached = toy_trace
    problems = gate(unreached, _allowed("return 2", "return 4", "return 5"), toy.parent)
    assert problems == ["allowed but gone: toy_traced.py  return 5"]
