"""CLI adapters: output shape, flag semantics, exit codes."""

import json
import socket

import pytest

from linkstate import encode
from linkstate.cli import main
from linkstate.history import HistoryLog
from linkstate.sync import socket_transport
from linkstate.sync.socket_transport import RelayServer

from graphops import new_root

STATE = {
    "title": "overview",
    "plots": [
        {"objectName": "p1", "className": "ex.Plot", "sessionState": {"title": "a"}},
        {"objectName": "p2", "className": "", "sessionState": None},
    ],
}


@pytest.fixture
def state_file(tmp_path):
    p = tmp_path / "one.state.json"
    p.write_text(encode(STATE))
    return str(p)


class TestInspect:
    def test_tree_rendering(self, state_file, capsys):
        assert main(["inspect", state_file]) == 0
        out = capsys.readouterr().out
        assert 'title: "overview"' in out
        assert "- p1:ex.Plot" in out
        assert "- p2 (reference)" in out

    @pytest.mark.parametrize(
        "node, rendered",
        [
            ({}, "{}"),
            (7, "7"),
            ([1, "a"], '[1,"a"]'),
            (
                {"kids": [
                    {"objectName": "n", "className": "ex.Number", "sessionState": 5},
                    {"objectName": "e", "className": "ex.Empty", "sessionState": {}},
                ]},
                "kids:\n  - n:ex.Number\n      5\n  - e:ex.Empty\n      {}",
            ),
            ({"a": {}, "b": []}, "a: {}\nb: []"),
            (
                [{"objectName": "r", "sessionState": 1}, {"objectName": "n", "className": "ex.N"}],
                "- r:\n    1\n- n:ex.N",
            ),
        ],
    )
    def test_rendering_of_empty_scalar_and_plain_nodes(self, node, rendered, tmp_path, capsys):
        p = tmp_path / "node.json"
        p.write_text(encode(node))
        assert main(["inspect", str(p)]) == 0
        assert capsys.readouterr().out == rendered + "\n"

    def test_canonical_roundtrip_byte_identical(self, state_file, capsys, tmp_path):
        assert main(["inspect", state_file, "--canonical"]) == 0
        first = capsys.readouterr().out
        again = tmp_path / "again.json"
        again.write_text(first.strip())
        assert main(["inspect", str(again), "--canonical"]) == 0
        assert capsys.readouterr().out == first

    def test_malformed_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["inspect", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_a_non_finite_number_is_an_error_not_a_traceback(self, tmp_path, capsys):
        p = tmp_path / "nan.json"
        p.write_text('{"a": NaN}')
        assert main(["inspect", str(p)]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert main(["inspect", "/definitely/not/here.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["inspect"])
        assert exc.value.code == 2


class TestDiffApply:
    def test_diff_of_identical_files_is_empty(self, state_file, capsys):
        assert main(["diff", state_file, state_file]) == 0
        assert capsys.readouterr().out.strip() == "{}"

    def test_apply_diff_reproduces_target(self, tmp_path, capsys):
        a = {"x": 1, "kids": [{"objectName": "n", "className": "ex.Counter", "sessionState": {"count": 1}}]}
        b = {"x": 2, "kids": [{"objectName": "m", "className": "ex.Label", "sessionState": {"text": "t"}}]}
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        fa.write_text(encode(a))
        fb.write_text(encode(b))
        assert main(["diff", str(fa), str(fb)]) == 0
        d = capsys.readouterr().out.strip()
        fd = tmp_path / "d.json"
        fd.write_text(d)
        assert main(["apply", str(fa), str(fd)]) == 0
        assert capsys.readouterr().out.strip() == encode(b)

    def test_keep_missing_retains_unmentioned_entries(self, tmp_path, capsys):
        base = [
            {"objectName": "a", "className": "ex.Counter", "sessionState": {"count": 1}},
            {"objectName": "b", "className": "ex.Counter", "sessionState": {"count": 2}},
        ]
        d = [{"objectName": "a", "className": "ex.Counter", "sessionState": {"count": 9}}]
        fb, fd = tmp_path / "base.json", tmp_path / "d.json"
        fb.write_text(encode(base))
        fd.write_text(json.dumps(d))
        assert main(["apply", str(fb), str(fd), "--keep-missing"]) == 0
        kept = json.loads(capsys.readouterr().out)
        assert [e["objectName"] for e in kept] == ["a", "b"]
        assert main(["apply", str(fb), str(fd)]) == 0
        dropped = json.loads(capsys.readouterr().out)
        assert [e["objectName"] for e in dropped] == ["a"]

    def test_a_state_that_repeats_an_entry_name_is_an_error_not_a_traceback(self, state_file, tmp_path, capsys):
        entry = {"objectName": "x", "className": "ex.Counter", "sessionState": None}
        p = tmp_path / "twice.json"
        p.write_text(json.dumps([entry, entry]))
        assert main(["diff", state_file, str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


def _history_file(tmp_path):
    root = new_root()
    log = HistoryLog(clock_ms=lambda: 0)
    log.attach(root)
    root.request_object("c", "ex.Counter")
    root.scheduler.flush_frame()
    root.get_object("c").count.set_state(5)
    root.scheduler.flush_frame()
    p = tmp_path / "session.history.json"
    p.write_text(log.export_json())
    return p, log


class TestReplay:
    def test_to_zero_is_baseline(self, tmp_path, capsys):
        p, log = _history_file(tmp_path)
        assert main(["replay", str(p), "--to", "0"]) == 0
        assert capsys.readouterr().out.strip() == encode(log.baseline)

    def test_default_is_cursor_state(self, tmp_path, capsys):
        p, log = _history_file(tmp_path)
        assert main(["replay", str(p)]) == 0
        assert capsys.readouterr().out.strip() == encode(log.state_at(2))

    def test_a_log_with_a_bad_timestamp_is_an_error_not_a_traceback(self, tmp_path, capsys):
        p, log = _history_file(tmp_path)
        p.write_text(log.export_json().replace('"timestampMs":0', '"timestampMs":"abc"', 1))
        assert main(["replay", str(p)]) == 1
        assert "timestampMs" in capsys.readouterr().err

    def test_a_log_with_a_label_that_is_no_string_is_an_error_not_a_traceback(self, tmp_path, capsys):
        p, log = _history_file(tmp_path)
        p.write_text(log.export_json().replace('"label":""', '"label":null', 1))
        assert main(["replay", str(p)]) == 1
        assert "label" in capsys.readouterr().err

    def test_verify_reports_per_step(self, tmp_path, capsys):
        p, _ = _history_file(tmp_path)
        assert main(["replay", str(p), "--verify"]) == 0
        err = capsys.readouterr().err
        assert "step 0: ok" in err and "step 1: ok" in err

    def test_verify_catches_corrupted_inverse(self, tmp_path, capsys):
        p, _ = _history_file(tmp_path)
        data = json.loads(p.read_text())
        data["steps"][1]["backward"] = {"c": {"count": 999}}
        data["steps"][1]["backward"] = [
            {"objectName": "c", "className": "ex.Counter", "sessionState": {"count": 999}}
        ]
        p.write_text(json.dumps(data))
        assert main(["replay", str(p), "--verify"]) == 1
        err = capsys.readouterr().err
        assert "step 1: FAIL" in err

    def test_a_baseline_that_repeats_an_entry_name_is_an_error_not_a_traceback(self, tmp_path, capsys):
        entry = {"objectName": "x", "className": "ex.Counter", "sessionState": None}
        p = tmp_path / "log.json"
        p.write_text(json.dumps({"version": 1, "baseline": [entry, entry], "cursor": 0, "steps": []}))
        assert main(["replay", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_step_that_cannot_be_applied_fails_with_every_later_step(self, tmp_path, capsys):
        x = {"objectName": "x", "className": "ex.Counter", "sessionState": {"count": 1}}
        y = {"objectName": "y", "className": "ex.Counter", "sessionState": {"count": 2}}
        steps = [
            {"forward": [x], "backward": []},
            {"forward": [{"objectName": "x"}, y, y], "backward": [{"objectName": "x"}]},  # creates y twice
            {"forward": {}, "backward": {}},
        ]
        p = tmp_path / "log.json"
        p.write_text(json.dumps({"version": 1, "baseline": [], "cursor": 0, "steps": steps}))
        assert main(["replay", str(p), "--verify"]) == 1
        err = capsys.readouterr().err
        assert "step 0: ok" in err and "step 1: FAIL" in err and "step 2: FAIL" in err
        assert "error: 2 step(s)" in err
        assert main(["replay", str(p), "--to", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: step 1 cannot be applied" in captured.err

    def test_version_mismatch_exits_one(self, tmp_path, capsys):
        p = tmp_path / "log.json"
        p.write_text('{"version":99,"baseline":null,"cursor":0,"steps":[]}')
        assert main(["replay", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_index(self, tmp_path, capsys):
        p, log = _history_file(tmp_path)
        assert main(["replay", str(p), "--to", "99"]) == 1
        assert capsys.readouterr().err == f"error: step index 99 outside [0, {len(log.steps)}]\n"


class TestJoin:
    def test_two_files_union(self, tmp_path, capsys):
        f1 = tmp_path / "pop.csv"
        f1.write_text("town,pop\nLowell,111\nBoston,222\n")
        f2 = tmp_path / "area.csv"
        f2.write_text("name,area\nBoston,90\nQuincy,27\n")
        code = main(
            ["join", "--key-type", "Town", "--csv", f"{f1}:town:pop", "--csv", f"{f2}:name:area"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "key,pop,area",
            "Boston,222,90",
            "Lowell,111,",
            "Quincy,,27",
        ]

    def test_single_file_passthrough_sorted(self, tmp_path, capsys):
        f1 = tmp_path / "pop.csv"
        f1.write_text("town,pop\nQuincy,3\nBoston,2\n")
        assert main(["join", "--key-type", "Town", "--csv", f"{f1}:town:pop"]) == 0
        assert capsys.readouterr().out.splitlines() == ["key,pop", "Boston,2", "Quincy,3"]

    def test_mismatched_key_type_flag_exits_one(self, tmp_path, capsys):
        f1 = tmp_path / "pop.csv"
        f1.write_text("town,pop\nLowell,1\n")
        f2 = tmp_path / "score.csv"
        f2.write_text("school,score\nLowell,88\n")
        code = main(
            [
                "join",
                "--key-type",
                "Town",
                "--csv",
                f"{f1}:town:pop",
                "--csv",
                f"{f2}:school:score:School",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_csv_spec_exits_two(self, tmp_path, capsys):
        assert main(["join", "--key-type", "T", "--csv", "only-a-path"]) == 2

    def test_missing_column_exits_one(self, tmp_path, capsys):
        f1 = tmp_path / "pop.csv"
        f1.write_text("town,pop\nLowell,1\n")
        assert main(["join", "--key-type", "T", "--csv", f"{f1}:town:nope"]) == 1


class TestSimulate:
    def scenario_path(self):
        import importlib.resources

        return str(importlib.resources.files("linkstate") / "scenarios" / "two-client-disjoint.json")

    def test_bundled_scenario_converges(self, capsys):
        assert main(["simulate", self.scenario_path(), "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["seed"] == 1
        assert report["relay"]["stateHash"].startswith("sha256:")

    def test_deterministic_report_bytes(self, capsys):
        assert main(["simulate", self.scenario_path(), "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", self.scenario_path(), "--seed", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_trace_goes_to_stderr(self, capsys):
        assert main(["simulate", self.scenario_path(), "--seed", "2", "--trace"]) == 0
        captured = capsys.readouterr()
        assert "relay->" in captured.err
        assert "relay->" not in captured.out

    def test_invalid_script_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"session":"s","clients":[]}')
        assert main(["simulate", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_script_nested_too_deeply_is_an_error_not_a_traceback(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main(["simulate", str(deep)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bundled_name_resolves_without_path(self, capsys):
        assert main(["simulate", "three-client-conflict", "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    def test_unknown_scenario_name_exits_one(self, capsys):
        assert main(["simulate", "no-such-scenario"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_run_that_does_not_converge_exits_one(self, tmp_path, capsys):
        # the only client's Hello is dropped at seed 1, so it never joins
        script = tmp_path / "solo.json"
        script.write_text(
            '{"session":"s","durationMs":1,"settleCapMs":1,"net":{"dropClientToRelay":0.5},"clients":[{"id":"solo"}]}'
        )
        assert main(["simulate", str(script), "--seed", "1"]) == 1
        assert json.loads(capsys.readouterr().out)["converged"] is False

    def test_a_realtime_run_that_does_not_converge_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(socket_transport, "run_realtime", lambda text: {"mode": "realtime", "converged": False})
        assert main(["simulate", "two-client-disjoint", "--realtime"]) == 1
        assert json.loads(capsys.readouterr().out) == {"mode": "realtime", "converged": False}

    def test_realtime_runs_a_bundled_scenario_over_loopback(self, capsys):
        assert main(["simulate", "two-client-disjoint", "--realtime"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "realtime" and report["converged"] is True
        assert {c["stateHash"] for c in report["clients"].values()} == {report["relay"]["stateHash"]}


class TestServe:
    def test_serve_reports_its_address_and_closes_on_interrupt(self, monkeypatch, capsys):
        def interrupted(server):
            raise KeyboardInterrupt

        monkeypatch.setattr(RelayServer, "serve_forever", interrupted)
        assert main(["serve", "--port", "0"]) == 0
        line = capsys.readouterr().err.strip()
        assert line.startswith("relay listening on 127.0.0.1:"), line
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", int(line.rsplit(":", 1)[1])), timeout=5).close()
