"""The line trace (line_trace.py) over a toy package and its toy tests: it
reports exactly the runnable lines no test ran, also after a test that
recursed to the limit and so made Python unset the trace."""

import sys

from line_trace import run, runnable_lines

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


def test_the_trace_reports_only_the_lines_no_test_ran_even_after_a_recursion_to_the_limit(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    toy = package / "toy_traced.py"
    toy.write_text(TOY)
    tests = tmp_path / "test_toy_traced.py"
    tests.write_text(TOY_TESTS)
    # the def and return lines of each function, the if of used
    assert runnable_lines(toy) == {1, 2, 3, 4, 7, 8, 11, 12, 13, 16, 17}
    sys.path.insert(0, str(package))
    try:
        code, unreached = run(["-q", "-p", "no:cacheprovider", "--rootdir", str(tmp_path), str(tests)], package)
    finally:
        sys.path.remove(str(package))
        sys.modules.pop("toy_traced", None)
    assert code == 0
    # the trace was off after test_deep, and on again for test_later
    assert unreached == {toy.resolve(): [4, 17]}
