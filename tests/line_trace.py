"""List the lines of src/linkstate that the tests never run, and gate them
against a committed allow-list.

A line counts as runnable when the module's compiled code maps an
instruction to it, and as reached when a trace event reports it while
pytest runs the tests. The trace is the standard library's sys.settrace
(threading.settrace for threads started later), so no coverage package is
needed. Python unsets a thread's trace function when that function raises,
as it does when a test recurses to the recursion limit and the trace call
is the one over it; the trace is armed again before each test, so one
such test hides no later test's lines. Child processes are not traced;
the tests run `serve` and the realtime `simulate` in process too, so only
the `__main__` guard of `python -m linkstate.cli` stays out of reach.

The allow-list (line_trace_allowed.json) names each line that no
in-process test can reach: its file under src/linkstate, its source text
with the indentation stripped (not its number, so that unrelated edits do
not churn the list) and the reason. A source text that a file holds twice
needs two entries to allow two unreached copies.

Usage: python3 tests/line_trace.py [PYTEST ARGS ...]
runs pytest (over tests/ when no argument is given) and prints
`path:line  source` for each runnable line of src/linkstate that no test
reached, then their count, then each disagreement with the allow-list: an
unreached line it does not list, or a listed line that is now reached or
gone. Exits 1 on any disagreement, with pytest's code when pytest fails,
else 0.
"""

import json
import sys
import threading
import types
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "linkstate"
ALLOWED = Path(__file__).resolve().parent / "line_trace_allowed.json"


def runnable_lines(path: Path) -> set[int]:
    """The lines of a module to which its compiled code maps an instruction."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0 is no source line
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTrace:
    """Records the lines run in the modules under root while it is armed.
    Also a pytest plugin: it arms itself again before each test."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.reached: dict[Path, set[int]] = {}
        self._tracers: dict[str, object] = {}  # co_filename -> local trace function, or None

    def _local_tracer(self, filename: str):
        path = Path(filename).resolve()
        if self.root not in path.parents:
            return None
        lines = self.reached.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = self._tracers[filename]
        except KeyError:
            local = self._tracers[filename] = self._local_tracer(filename)
        if local is not None:
            local(frame, "line", arg)  # the call line: a def's first line
        return local

    def arm(self) -> None:
        if sys.gettrace() is not self._call:
            sys.settrace(self._call)

    def __enter__(self) -> "LineTrace":
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.arm()

    def unreached(self) -> dict[Path, list[int]]:
        """The runnable lines no trace event reported, by module."""
        out = {}
        for path in sorted(self.root.rglob("*.py")):
            missed = sorted(runnable_lines(path) - self.reached.get(path, set()))
            if missed:
                out[path] = missed
        return out


def run(pytest_args: list[str], root: Path) -> tuple[int, dict[Path, list[int]]]:
    """Run pytest with pytest_args under the trace: its exit code and the
    lines under root it left unreached."""
    trace = LineTrace(root)
    with trace:
        code = pytest.main(pytest_args, plugins=[trace])
    return int(code), trace.unreached()


def gate(unreached: dict[Path, list[int]], allowed: list[dict], root: Path) -> list[str]:
    """Where the unreached lines under root and the allow-list disagree,
    one message each: an unreached line the list does not name, and a
    listed line that is now reached or whose source text is gone."""
    missed: dict[tuple[str, str], list[int]] = {}
    for path, lines in unreached.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for n in lines:
            missed.setdefault((path.relative_to(root).as_posix(), source[n - 1].strip()), []).append(n)
    listed = Counter((entry["file"], entry["source"]) for entry in allowed)
    problems = []
    for (file, text), lines in missed.items():
        for n in lines[listed[file, text]:]:
            problems.append(f"unreached and not allowed: {file}:{n}  {text}")
    for (file, text), count in listed.items():
        path = root / file
        present = path.is_file() and text in {line.strip() for line in path.read_text(encoding="utf-8").splitlines()}
        for _ in range(count - len(missed.get((file, text), []))):
            problems.append(f"allowed but {'reached' if present else 'gone'}: {file}  {text}")
    return problems


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    code, unreached = run(argv or ["-q", "-p", "no:cacheprovider", str(REPO / "tests")], SRC)
    for path, lines in unreached.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for n in lines:
            print(f"{path.relative_to(SRC)}:{n}  {source[n - 1].strip()}")
    print(f"{sum(map(len, unreached.values()))} unreached lines under {SRC.relative_to(REPO)}")
    problems = gate(unreached, json.loads(ALLOWED.read_text(encoding="utf-8")), SRC)
    for problem in problems:
        print(problem)
    return code or int(bool(problems))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
