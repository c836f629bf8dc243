"""List the lines of src/linkstate that the tests never run and the
conditions they decide only one way, and gate both against a committed
allow-list.

A line counts as runnable when the module's compiled code maps an
instruction to it, and as reached when a trace event reports it while
pytest runs the tests. A condition is a conditional jump: an instruction
whose opcode name holds both JUMP and IF, except the jump straight after
CHECK_EXC_MATCH (an `except` clause's match) or WITH_EXCEPT_START (a
`with` block's exit). Its source segment is the position of the
instruction before the jump, which computes the tested value, so
`a or b` holds two conditions and the two compiled copies of a `while`
test merge into one. The value a condition took is the tested value's
truth (`true`, `false`), or for a jump on None whether it was `None`.
The trace records which way each jump went from the next instruction its
frame runs: the jump's fall-through or its target. A jump with an
EXTENDED_ARG prefix is looked up at the prefix, where its opcode event
fires. A condition on a
reached line that was seen fewer than two ways is undecided; a condition
on an unreached line is left to that line.

The trace is the standard library's sys.settrace (threading.settrace for
threads started later) with opcode events on, so no coverage package is
needed; it needs Python 3.11 or later for `co_positions` and
`co_qualname`. Every record (a set of lines per module, two flags per
condition) is made before pytest starts, so that the tests that measure
retained memory see none of the trace's. Python unsets a thread's trace
function when that function raises, as it does when a test recurses to
the recursion limit and the trace call is the one over it; the trace is
armed again before each test, so one such test hides no later test's
lines. Child processes are not traced; the tests run `serve` and the
realtime `simulate` in process too, so only the `__main__` guard of
`python -m linkstate.cli` stays out of reach.

The allow-list (line_trace_allowed.json) names each line that no
in-process test can reach and each condition that no in-process test can
decide both ways: its file under src/linkstate, its line's source text
with the indentation stripped (not its number, so that unrelated edits do
not churn the list), for a condition its segment and the value seen, and
the reason. A text that a file holds twice needs two entries to allow two
copies.

Usage: python3 tests/line_trace.py [PYTEST ARGS ...]
runs pytest (over tests/ when no argument is given) and prints
`path:line  source` for each runnable line of src/linkstate that no test
reached, then `path:line  source  [segment] seen only VALUE` for each
undecided condition, then the two counts, then each disagreement with
the allow-list: an unreached line or undecided condition it does not
list, or a listed one that is now reached, decided or gone. Exits 1 on
any disagreement, with pytest's code when pytest fails, else 0.
"""

import dis
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

_EXIT_TESTS = {"CHECK_EXC_MATCH", "WITH_EXCEPT_START"}  # except matching and `with` exits


def _codes(path: Path):
    """The module's code object and every code object nested in it."""
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)]
    while codes:
        code = codes.pop()
        yield code
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))


def runnable_lines(path: Path) -> set[int]:
    """The lines of a module to which its compiled code maps an instruction."""
    return {line for code in _codes(path) for _, _, line in code.co_lines() if line}  # 0 is no source line


class Condition:
    """One source segment that conditional jumps test, and the values it
    was seen to take."""

    __slots__ = ("path", "line", "segment", "values", "seen")

    def __init__(self, path: Path, line: int, segment: str, values: tuple[str, str]):
        self.path, self.line, self.segment, self.values = path, line, segment, values
        self.seen = [False, False]  # by value

    def seen_as(self) -> str:
        """The one value seen, or "both ways", or "neither way"."""
        if self.seen[0] != self.seen[1]:
            return self.values[self.seen[1]]
        return "both ways" if self.seen[0] else "neither way"

    def report(self, root: Path) -> str:
        seen = self.seen_as()
        if seen in self.values:
            seen = f"only {seen}"
        return f"{self.path.relative_to(root).as_posix()}:{self.line}  {_text(self.path, self.line)}  [{self.segment}] seen {seen}"


def _segment(source: list[bytes], line: int, end_line: int, col: int, end_col: int) -> str:
    """The source text at a position; columns count UTF-8 bytes."""
    text = b"\n".join(source[line - 1 : end_line])
    return " ".join(text[col : len(text) - len(source[end_line - 1]) + end_col].decode("utf-8").split())


def conditions(path: Path) -> tuple[dict[tuple, dict[int, tuple]], list[Condition]]:
    """A module's conditions, and for each of its code objects, keyed by
    (path, qualified name, positions), the jumps that test them: offset ->
    (fall-through offset, target offset, the condition's seen flags, the
    value the fall-through means)."""
    source = path.read_bytes().splitlines()
    merged: dict[tuple, Condition] = {}
    tables = {}
    for code in _codes(path):
        jumps = {}
        instructions = list(dis.get_instructions(code))
        before = prefix = None  # prefix: the offset of the EXTENDED_ARGs before ins
        for ins, after in zip(instructions, instructions[1:]):
            if "JUMP" in ins.opname and "IF" in ins.opname and before.opname not in _EXIT_TESTS:
                at = before.positions
                if at.lineno and ins.argval != after.offset:
                    none = "NONE" in ins.opname
                    values = ("not None", "None") if none else ("false", "true")
                    key = (at, values)
                    if key not in merged:
                        merged[key] = Condition(path, at.lineno, _segment(source, *at), values)
                    taken = int(("NOT_NONE" not in ins.opname) if none else ("TRUE" in ins.opname))
                    start = ins.offset if prefix is None else prefix
                    jumps[start] = (after.offset, ins.argval, merged[key].seen, 1 - taken)
            if ins.opname != "EXTENDED_ARG":
                before, prefix = ins, None
            elif prefix is None:
                prefix = ins.offset
        tables[path, code.co_qualname, tuple(code.co_positions())] = jumps
    return tables, [merged[key] for key in sorted(merged)]  # in source order


def _frame_tracer(lines: set[int], jumps: dict[int, tuple]):
    """A local trace function for one frame: records each line it runs and
    which way each conditional jump went. It returns None, which keeps it
    the frame's trace function; returning itself would make it a cycle
    that outlives its frame until the next garbage collection."""
    pending = None

    def local(frame, event, arg):
        nonlocal pending
        if pending is not None:
            fall, target, seen, value = pending
            pending = None
            at = frame.f_lasti
            if at == fall:
                seen[value] = True
            elif at == target:
                seen[1 - value] = True
        if event == "line":
            lines.add(frame.f_lineno)
        elif event == "opcode":
            pending = jumps.get(frame.f_lasti)

    return local


class LineTrace:
    """Records the lines run and the conditions decided in the modules
    under root while it is armed. Also a pytest plugin: it arms itself
    again before each test."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.reached: dict[Path, set[int]] = {}
        self.conditions: list[Condition] = []
        self._tables: dict[tuple, dict[int, tuple]] = {}
        for path in sorted(self.root.rglob("*.py")):
            self.reached[path] = set()
            tables, found = conditions(path)
            self._tables.update(tables)
            self.conditions.extend(found)
        self._tracers: dict[types.CodeType, tuple | None] = {}  # code -> (lines, jumps), or None outside root

    def _records(self, code: types.CodeType):
        path = Path(code.co_filename).resolve()
        if path not in self.reached:
            return None
        return self.reached[path], self._tables.get((path, code.co_qualname, tuple(code.co_positions())), {})

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            records = self._tracers[code]
        except KeyError:
            records = self._tracers[code] = self._records(code)
        if records is None:
            return None
        local = _frame_tracer(*records)
        frame.f_trace_opcodes = bool(records[1])
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
        for path, reached in self.reached.items():
            missed = sorted(runnable_lines(path) - reached)
            if missed:
                out[path] = missed
        return out

    def reached_conditions(self) -> list[Condition]:
        """The conditions on reached lines, in source order."""
        return [c for c in self.conditions if c.line in self.reached[c.path]]


def run(pytest_args: list[str], root: Path) -> tuple[int, dict[Path, list[int]], list[Condition]]:
    """Run pytest with pytest_args under the trace: its exit code, the
    lines under root it left unreached and the conditions on the lines
    it reached."""
    trace = LineTrace(root)
    with trace:
        code = pytest.main(pytest_args, plugins=[trace])
    return int(code), trace.unreached(), trace.reached_conditions()


def undecided(conds: list[Condition]) -> list[Condition]:
    """The conditions seen fewer than two ways."""
    return [c for c in conds if not all(c.seen)]


def _text(path: Path, line: int) -> str:
    return path.read_text(encoding="utf-8").splitlines()[line - 1].strip()


def gate(unreached: dict[Path, list[int]], conds: list[Condition], allowed: list[dict], root: Path) -> list[str]:
    """Where the unreached lines and undecided conditions under root and
    the allow-list disagree, one message each: an unreached line or an
    undecided condition the list does not name, and a listed one that is
    now reached or decided, or whose source text is gone."""
    found: dict[tuple, list[str]] = {}  # allow-list key -> each such place, as reported
    for path, lines in unreached.items():
        for n in lines:
            file, text = path.relative_to(root).as_posix(), _text(path, n)
            found.setdefault((file, text), []).append(f"unreached and not allowed: {file}:{n}  {text}")
    values: dict[tuple, list[str]] = {}  # (file, source, segment) -> the values each copy was seen as
    for c in conds:
        file, text = c.path.relative_to(root).as_posix(), _text(c.path, c.line)
        values.setdefault((file, text, c.segment), []).append(c.seen_as())
        if not all(c.seen):
            found.setdefault((file, text, c.segment, c.seen_as()), []).append(f"undecided and not allowed: {c.report(root)}")
    listed = Counter(
        (entry["file"], entry["source"], entry["segment"], entry["value"]) if "segment" in entry else (entry["file"], entry["source"])
        for entry in allowed
    )
    problems = []
    for key, places in found.items():
        problems.extend(places[listed[key] :])
    for key, count in listed.items():
        file, text = key[:2]
        if len(key) == 2:
            path = root / file
            present = path.is_file() and text in {line.strip() for line in path.read_text(encoding="utf-8").splitlines()}
            state = "reached" if present else "gone"
            what = f"{file}  {text}"
        else:
            seen = values.get(key[:3])
            state = f"seen {' / '.join(seen)}" if seen else "gone"
            what = f"{file}  {text}  [{key[2]}] {key[3]}"
        for _ in range(count - len(found.get(key, []))):
            problems.append(f"allowed but {state}: {what}")
    return problems


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    code, unreached, conds = run(argv or ["-q", "-p", "no:cacheprovider", str(REPO / "tests")], SRC)
    for path, lines in unreached.items():
        for n in lines:
            print(f"{path.relative_to(SRC)}:{n}  {_text(path, n)}")
    for c in undecided(conds):
        print(c.report(SRC))
    print(f"{sum(map(len, unreached.values()))} unreached lines under {SRC.relative_to(REPO)}")
    print(f"{len(undecided(conds))} undecided conditions of {len(conds)} on reached lines")
    problems = gate(unreached, conds, json.loads(ALLOWED.read_text(encoding="utf-8")), SRC)
    for problem in problems:
        print(problem)
    return code or int(bool(problems))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
