"""The simulation script (docs/sim-script.md): every refusal of the loader,
a gate that each of the loader's `_fail` calls is reached by that table,
the docs' tables checked against the loader's spec tables, and the edits a
replica skips."""

import ast
import json
import re
import sys
from pathlib import Path
from string import Formatter

import pytest

from linkstate.errors import ScriptError
from linkstate.sync import load_script, run_simulation, sim

DOC = Path(__file__).resolve().parent.parent / "docs" / "sim-script.md"


def _script(**top):
    return {"session": "s", "clients": [{"id": "a"}], **top}


def _net(**options):
    return _script(net=options)


def _edits(*edits):
    return _script(clients=[{"id": "a", "edits": list(edits)}])


def _op(op, **fields):
    return _edits({"atMs": 0, "op": op, **fields})


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


_MINIMAL = '{"session":"s","clients":[{"id":"a"}]}'
_TOO_DEEP = "maximum recursion depth exceeded"

# (script, ScriptError message). A message ending in "..." is a prefix.
REFUSALS = [
    ("not json", "script is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (b"{", "script is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (b"\xff", "script is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("[" * 100_000, f"script is not valid JSON: {_TOO_DEEP}..."),
    (_MINIMAL.replace("}]}", '}],"x":NaN}'), "script is not valid JSON: non-finite number in JSON: NaN"),
    (
        _MINIMAL.replace("}]}", '}],"net":{"latencyMs":Infinity}}'),
        "script is not valid JSON: non-finite number in JSON: Infinity",
    ),
    (
        _MINIMAL.replace("}]}", '}],"net":{"dropClientToRelay":1e999}}'),
        "script is not valid JSON: non-finite number in JSON: 1e999",
    ),
    ("[]", "script must be a JSON object"),
    (5, "script must be a JSON object"),
    ({"clients": [{"id": "a"}]}, "script needs a non-empty 'session' string"),
    (_script(session=""), "script needs a non-empty 'session' string"),
    (_script(durationMs=0), "durationMs must be a positive integer"),
    (_script(flushIntervalMs=True), "flushIntervalMs must be a positive integer"),
    (_script(settleCapMs="5"), "settleCapMs must be a positive integer"),
    (_script(net=[]), "'net' must be an object"),
    (_net(bogus=1), "unknown net option 'bogus'"),
    (_net(latencyMs=[5, 1]), "latencyMs range must be [lo, hi] with 0 <= lo <= hi"),
    (_net(latencyMs=[1]), "latencyMs range must be [lo, hi] with 0 <= lo <= hi"),
    (_net(latencyMs=[-1, 1]), "latencyMs range must be [lo, hi] with 0 <= lo <= hi"),
    (_net(latencyMs=-1), "latencyMs must be a non-negative integer or [lo, hi]"),
    (_net(latencyMs=True), "latencyMs must be a non-negative integer or [lo, hi]"),
    (_net(order="chaos"), "net order must be 'fifo' or 'reorder'"),
    (_net(dropClientToRelay=1.5), "dropClientToRelay must be a probability in [0, 1)"),
    (_net(dropClientToRelay=False), "dropClientToRelay must be a probability in [0, 1)"),
    (_net(dropRelayToClientWindows={}), "dropRelayToClientWindows must be a list of [startMs, endMs]"),
    (_net(dropRelayToClientWindows=[[5, 5]]), "each drop window must be [startMs, endMs] with start < end"),
    (_net(dropRelayToClientWindows=[[1, 2, 3]]), "each drop window must be [startMs, endMs] with start < end"),
    (_net(ackTimeoutMs=0), "ackTimeoutMs must be a positive integer"),
    (_net(gapTimeoutMs=2.5), "gapTimeoutMs must be a positive integer"),
    ({"session": "s"}, "script needs a non-empty 'clients' list"),
    (_script(clients=[]), "script needs a non-empty 'clients' list"),
    (_script(clients=[5]), "every client needs a non-empty string 'id'"),
    (_script(clients=[{"id": ""}]), "every client needs a non-empty string 'id'"),
    (_script(clients=[{"id": "a"}, {"id": "a"}]), "duplicate client id 'a'"),
    (_script(clients=[{"id": "a", "edits": {}}]), "client 'a': 'edits' must be a list"),
    (_edits(5), "client 'a': every edit must be an object"),
    (_edits({"op": "clear", "path": ["x"]}), "client 'a': edit needs a non-negative integer 'atMs'"),
    (_edits({"atMs": -1, "op": "remove", "name": "x"}), "client 'a': edit needs a non-negative integer 'atMs'"),
    (_op("warp"), "client 'a': unknown op 'warp'"),
    (_edits({"atMs": 0}), "client 'a': unknown op None"),
    (_op(["set"]), "client 'a': unknown op ['set']"),
    (_op("request", **{"class": "ex.Counter"}), "client 'a': op 'request' needs a non-empty string 'name'"),
    (_op("request", name="x"), "client 'a': op 'request' needs a non-empty string 'class'"),
    (_op("request", name="x", **{"class": "nope"}), "client 'a': unknown class 'nope'"),
    (_op("set", path=[], value=1), "client 'a': op 'set' needs 'path' as a list of names"),
    (_op("set", path=["x", ""], value=1), "client 'a': op 'set' needs 'path' as a list of names"),
    (_op("set", path=["x"], value={1: 2}), "client 'a': invalid 'value': mapping key must be str, got int"),
    (_op("set", path=["x"], value=float("nan")), "client 'a': invalid 'value': non-finite number in state tree: nan"),
    (_op("set", path=["x"], value=_nested(5000)), f"client 'a': invalid 'value': {_TOO_DEEP}..."),
    (_op("remove"), "client 'a': op 'remove' needs a non-empty string 'name'"),
    (_op("reorder", names=[]), "client 'a': 'reorder' needs a list of distinct names"),
    (_op("reorder", names=["x", "x"]), "client 'a': 'reorder' needs a list of distinct names"),
    (_op("local", name="x"), "client 'a': op 'local' needs 'path' as a list of names"),
    (_op("local", path=["x"]), "client 'a': op 'local' needs a non-empty string 'class'"),
    (_op("local", path=["x"], **{"class": "nope"}), "client 'a': unknown class 'nope'"),
    (_op("global", path="x", name="y"), "client 'a': op 'global' needs 'path' as a list of names"),
    (_op("global", path=["x"]), "client 'a': op 'global' needs a non-empty string 'name'"),
    (_op("clear", name="x"), "client 'a': op 'clear' needs 'path' as a list of names"),
    (_net(dropClientToRelay=-0.1), "dropClientToRelay must be a probability in [0, 1)"),
    (_net(dropClientToRelay="0.5"), "dropClientToRelay must be a probability in [0, 1)"),
    (_net(latencyMs=[1, "2"]), "latencyMs range must be [lo, hi] with 0 <= lo <= hi"),
    (_net(dropRelayToClientWindows=[5]), "each drop window must be [startMs, endMs] with start < end"),
]


def _refusal(script) -> str:
    with pytest.raises(ScriptError) as e:
        load_script(script)
    return str(e.value)


@pytest.mark.parametrize("script, message", REFUSALS, ids=range(len(REFUSALS)))
def test_each_refusal_names_its_fault(script, message):
    text = _refusal(script)
    if message.endswith("..."):
        assert text.startswith(message[:-3])
    else:
        assert text == message


def test_every_fail_call_in_the_loader_is_reached(monkeypatch):
    reached = set()
    fail = sim._fail

    def recording(msg):
        reached.add(sys._getframe(1).f_lineno)
        fail(msg)

    monkeypatch.setattr(sim, "_fail", recording)
    for script, _ in REFUSALS:
        _refusal(script)
    tree = ast.parse(Path(sim.__file__).read_text(encoding="utf-8"))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_fail"]
    unreached = [c.lineno for c in calls if not reached.intersection(range(c.lineno, c.end_lineno + 1))]
    assert calls and not unreached, f"no refusal reaches the _fail call on line(s) {unreached}"


def test_every_check_in_the_spec_tables_has_a_refusal_row():
    messages = [message.removesuffix("...") for _, message in REFUSALS]
    tables = (sim._POSITIVE, *sim._NET_CHECKS.values(), *sim._FIELD_CHECKS.values())
    missing = []
    for _, refusal in {pair for checks in tables for pair in checks}:
        # each {field} of the refusal matches any text
        fields = Formatter().parse(refusal)
        pattern = "".join(re.escape(text) + (".+" if name is not None else "") for text, name, _, _ in fields)
        if not any(re.fullmatch(f"(client '[^']+': )?{pattern}", m) for m in messages):
            missing.append(refusal)
    assert not missing, f"no refusal row for {missing}"


def test_a_script_the_loader_accepts_comes_back_in_canonical_form():
    edits = [
        {"atMs": 0, "op": "request", "name": "p", "class": "ex.Plot", "extra": 1},
        {"atMs": 1, "op": "set", "path": ["p", "title"], "value": {"x": [1.5, None]}},
        {"op": "remove", "atMs": 2, "name": "p"},
        {"atMs": 3, "op": "reorder", "names": ["p", "q"]},
        {"atMs": 4, "op": "local", "path": ["p", "source"], "class": "ex.Counter"},
        {"atMs": 5, "op": "global", "path": ["p", "source"], "name": "q"},
        {"atMs": 6, "op": "clear", "path": ["p", "source"]},
        {"atMs": 7, "op": "set", "path": ["p", "title"]},
    ]
    loaded = load_script({"clients": [{"edits": edits, "id": "a"}], "net": {"dropClientToRelay": 0}, "session": "s"})
    assert json.dumps(loaded) == json.dumps(
        {
            "session": "s",
            "durationMs": 2000,
            "flushIntervalMs": 10,
            "settleCapMs": 10000,
            "net": {
                "latencyMs": 5,
                "order": "fifo",
                "dropClientToRelay": 0.0,
                "dropRelayToClientWindows": [],
                "ackTimeoutMs": 250,
                "gapTimeoutMs": 250,
            },
            "clients": [
                {
                    "id": "a",
                    "edits": [
                        {"atMs": 0, "op": "request", "name": "p", "class": "ex.Plot"},
                        {"atMs": 1, "op": "set", "path": ["p", "title"], "value": {"x": [1.5, None]}},
                        {"atMs": 2, "op": "remove", "name": "p"},
                        {"atMs": 3, "op": "reorder", "names": ["p", "q"]},
                        {"atMs": 4, "op": "local", "path": ["p", "source"], "class": "ex.Counter"},
                        {"atMs": 5, "op": "global", "path": ["p", "source"], "name": "q"},
                        {"atMs": 6, "op": "clear", "path": ["p", "source"]},
                        {"atMs": 7, "op": "set", "path": ["p", "title"], "value": None},
                    ],
                }
            ],
        }
    )


# -- the docs' tables against the loader's spec tables ------------------------------


def _doc_table(heading: str) -> dict[str, list[str]]:
    """The first markdown table under heading: first cell (backticks
    stripped) -> the remaining cells."""
    section = DOC.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| ---"):
            continue
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[1:]
        elif rows:
            break
    return rows


def _doc_default(cell: str):
    return json.loads(cell.strip("`"))


def test_the_top_level_table_lists_the_loaders_periods_and_defaults():
    rows = _doc_table("Top-level fields")
    rows.pop("field")
    periods = {key: _doc_default(rows.pop(key)[0]) for key in sim.PERIODS}
    assert periods == sim.PERIODS
    assert {key: cells[0] for key, cells in rows.items()} == {
        "session": "required",
        "net": "`{}`",
        "clients": "required",
    }


def test_the_net_table_lists_the_loaders_options_and_defaults():
    rows = _doc_table("Network model")
    assert rows.pop("key") == ["default", "constraint"]
    assert [(key, _doc_default(cells[0])) for key, cells in rows.items()] == list(sim.NET_OPTIONS.items())


def test_the_ops_table_lists_the_loaders_ops_and_their_fields():
    rows = _doc_table("Edits")
    rows.pop("op")
    assert {op: tuple(re.findall(r"`(\w+)`", cells[0])) for op, cells in rows.items()} == sim.EDIT_OPS


# -- edits a replica skips -------------------------------------------------------------


def test_a_client_that_never_joined_has_not_converged():
    # At seed 1 the only client's Hello is dropped, and the run ends before it
    # is sent again: the client holds the relay's empty state but never joined.
    script = {
        "session": "s",
        "durationMs": 1,
        "settleCapMs": 1,
        "net": {"dropClientToRelay": 0.5},
        "clients": [{"id": "solo"}],
    }
    report = run_simulation(script, seed=1).report
    assert report["network"]["framesDelivered"] == 0
    assert report["clients"]["solo"]["stateHash"] == report["relay"]["stateHash"]
    assert report["converged"] is False and report["clients"]["solo"]["converged"] is False
    assert report["divergences"] == {}


def test_every_edit_whose_target_is_gone_is_skipped_and_counted():
    edits = [
        {"op": "request", "name": "c", "class": "ex.Counter"},
        {"op": "request", "name": "p", "class": "ex.Plot"},
        {"op": "reorder", "names": ["ghost"]},  # no live name
        {"op": "local", "path": ["c", "count"], "class": "ex.Label"},  # no slot
        {"op": "clear", "path": ["c", "count"]},  # no slot
        {"op": "global", "path": ["ghost", "source"], "name": "c"},  # no object
        {"op": "set", "path": ["p", "source", "count"], "value": 1},  # through an empty slot
        {"op": "remove", "name": "ghost"},  # no such name
        {"op": "reorder", "names": ["ghost", "p", "c"]},
        {"op": "remove", "name": "p"},
    ]
    script = _edits(*({"atMs": 50 + 10 * i, **e} for i, e in enumerate(edits)))  # after the Welcome
    result = run_simulation(script, seed=1)
    assert result.report["converged"]
    assert result.report["clients"]["a"]["skippedEdits"] == 6
    assert [e["objectName"] for e in result.relay.session_state("s")] == ["c"]



def test_a_set_the_replicas_verifier_refuses_is_skipped_and_counted():
    script = _edits(
        {"atMs": 50, "op": "request", "name": "c", "class": "ex.Counter"},
        {"atMs": 60, "op": "set", "path": ["c", "count"], "value": "x"},  # a Counter's count is a number
        {"atMs": 70, "op": "set", "path": ["c", "count"], "value": 3},
    )
    result = run_simulation(script, seed=1)
    assert result.report["converged"]
    assert result.report["clients"]["a"]["skippedEdits"] == 1
    assert result.relay.session_state("s")[0]["sessionState"] == {"count": 3}
