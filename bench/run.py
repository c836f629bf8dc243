"""linkstate benchmark.

    python3 bench/run.py --workload editor-large --seed 1 --seconds 30 --trace 0

Builds nothing: it imports linkstate from src/ of the checkout it lives in.
With --trace 0 it prints the end-to-end metrics of one workload, measured
untraced; on editor-large and sim-lossy they are timed with a speed clock
that reads as if the shared host ran in its fast phase (common.SpeedClock;
bench/DESIGN.md, "Machine noise and the speed clock"). With --trace 1 it
runs the workload untraced for half the time, then with span tracing
installed around each layer's entry points for the other half, and prints
the per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object; the lines before it are the same figures for
people. `--workload all` runs the three workloads one after
another, each in its own process. See bench/DESIGN.md for why these
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("editor-large", "sim-lossy", "relay-loopback")

# per-layer metrics read from the spans: (metric, span name, field, unit)
SPAN_METRICS = [
    ("callbacks.flush_frame.calls", "callbacks.flush_frame", "calls", "count"),
    ("callbacks.flush_frame.self_ms", "callbacks.flush_frame", "self_ms", "ms"),
    ("callbacks.trigger.calls", "callbacks.trigger", "calls", "count"),
    ("linkable.set_state.calls", "linkable.set_state", "calls", "count"),
    ("linkable.set_state.ms", "linkable.set_state", "ms", "ms"),
    ("dynamic.get_session_state.calls", "dynamic.get_session_state", "calls", "count"),
    ("dynamic.get_session_state.ms", "dynamic.get_session_state", "ms", "ms"),
    ("dynamic.set_session_state.calls", "dynamic.set_session_state", "calls", "count"),
    ("dynamic.set_session_state.ms", "dynamic.set_session_state", "ms", "ms"),
    ("statetree.diff.calls", "statetree.diff", "calls", "count"),
    ("statetree.diff.ms", "statetree.diff", "ms", "ms"),
    ("statetree.apply_diff.calls", "statetree.apply_diff", "calls", "count"),
    ("statetree.apply_diff.ms", "statetree.apply_diff", "ms", "ms"),
    ("statetree.encode.calls", "statetree.encode", "calls", "count"),
    ("statetree.encode.ms", "statetree.encode", "ms", "ms"),
    ("statetree.encode.bytes", "statetree.encode", "size", "bytes"),
    ("statetree.state_equivalent.calls", "statetree.state_equivalent", "calls", "count"),
    ("statetree.state_equivalent.ms", "statetree.state_equivalent", "ms", "ms"),
    ("history.record.calls", "history.record", "calls", "count"),
    ("history.record.ms", "history.record", "ms", "ms"),
    ("history.undo.ms", "history.undo", "ms", "ms"),
    ("history.redo.ms", "history.redo", "ms", "ms"),
    ("history.jump_to.calls", "history.jump_to", "calls", "count"),
    ("history.jump_to.ms", "history.jump_to", "ms", "ms"),
    ("wire.encode_frame.calls", "wire.encode_frame", "calls", "count"),
    ("wire.encode_frame.ms", "wire.encode_frame", "ms", "ms"),
    ("wire.encode_frame.bytes", "wire.encode_frame", "size", "bytes"),
    ("wire.decode_frame.calls", "wire.decode_frame", "calls", "count"),
    ("wire.decode_frame.ms", "wire.decode_frame", "ms", "ms"),
    ("relay.handle.calls", "relay.handle", "calls", "count"),
    ("relay.handle.ms", "relay.handle", "ms", "ms"),
    ("relay.fanout.msgs", "relay.handle", "size", "count"),
    ("client.on_message.calls", "client.on_message", "calls", "count"),
    ("client.on_message.ms", "client.on_message", "ms", "ms"),
    ("client.flush.calls", "client.flush", "calls", "count"),
    ("client.flush.ms", "client.flush", "ms", "ms"),
]

# per-layer metrics the workloads count themselves: (metric, unit)
COUNTER_METRICS = [
    ("history.steps", "count"),
    ("relay.applied", "count"),
    ("relay.dup_applies", "count"),
    ("relay.useful_ratio", "ratio"),
    ("client.sent_diffs", "count"),
    ("client.retransmits", "count"),
    ("client.resyncs", "count"),
    ("client.stale_drops", "count"),
    ("client.retransmit_ratio", "ratio"),
    ("sim.frames_sent", "count"),
    ("sim.frames_dropped", "count"),
    ("sim.frames_delivered", "count"),
    ("sim.wire_bytes_per_op", "bytes/op"),
    ("sim.settle_virtual_ms", "ms"),
    ("relay.cpu_s", "s"),
    ("relay.busy_ratio", "ratio"),
    ("gen.late_ms_max", "ms"),
]

LAYERS = ["bench", "callbacks", "linkable", "dynamic", "statetree", "history", "wire", "relay", "client", "sim", "socket"]


def run_workload(name: str, seed: int, seconds: float, tracer, sample_speed: bool = False):
    """One workload run. With sample_speed, a CPU-bound workload is timed
    with a SpeedClock, so its times read as in the machine's fast phase.
    relay-loopback waits on sockets, threads and a child process, not on
    this process's CPU, and keeps wall time."""
    if name == "relay-loopback":
        import relay_loopback

        return relay_loopback.run(seed, seconds, tracer, SRC)
    import editor_large
    import sim_lossy
    from common import SpeedClock

    workload = editor_large if name == "editor-large" else sim_lossy
    if not sample_speed:
        return workload.run(seed, seconds, tracer)
    clock = SpeedClock()
    clock.start()
    try:
        res = workload.run(seed, seconds, tracer, clock)
    finally:
        clock.stop()
    res.speed = clock
    return res


def rate(r) -> float:
    """Operations completed per second of a round; failed ones do not count."""
    return (r.ops - r.failed) / r.timed_s


def end_to_end(res) -> tuple[dict[str, tuple[float, str]], dict[str, tuple[float, str]]]:
    """The gated metrics, and for people how slow the machine ran.

    Medians over rounds, so a round that ran in a slow stretch of the
    machine does not move them. On editor-large and sim-lossy every time
    was taken with a SpeedClock, so it reads as in the machine's fast phase;
    speed.factor is the mean slowdown the clock measured over the run."""
    from common import median, percentile

    if res.rounds[0].latencies_ms:
        p50 = median([percentile(r.latencies_ms, 50) for r in res.rounds])
        p90 = median([percentile(r.latencies_ms, 90) for r in res.rounds])
    else:
        # sim-lossy: the edits run inside one simulator call, so the per-op
        # figure is ms per scripted edit, one value per round; these two
        # repeat ops_per_s rather than add a signal of their own
        per_edit = [r.timed_s * 1000 / r.ops for r in res.rounds]
        p50, p90 = percentile(per_edit, 50), percentile(per_edit, 90)
    metrics = {
        "setup_s": (median(res.setup_samples), "s"),
        "ops_per_s": (median([rate(r) for r in res.rounds]), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (res.peak_rss_mb, "MB"),
    }
    extra = {}
    if res.speed is not None:
        extra["speed.factor"] = (res.speed.factor(), "x")
        extra["speed.samples"] = (len(res.speed.samples_ms), "count")
    return metrics, extra


def per_layer(plain, traced, tracer) -> dict[str, tuple[float, str]]:
    from common import median

    n = len(traced.rounds)
    summary = tracer.summary()
    out = {}
    for metric, span, field, unit in SPAN_METRICS:
        out[metric] = (summary.get(span, {}).get(field, 0) / n, unit)
    for metric, unit in COUNTER_METRICS:
        out[metric] = (sum(r.counters.get(metric, 0) for r in traced.rounds) / n, unit)
    for layer in LAYERS:
        self_ms = sum(row["self_ms"] for span, row in summary.items() if span.split(".")[0] == layer)
        out[f"layer.{layer}.self_ms"] = (self_ms / n, "ms")
    untraced = median([rate(r) for r in plain.rounds])
    traced_rate = median([rate(r) for r in traced.rounds])
    out["trace.untraced_ops_per_s"] = (untraced, "1/s")
    out["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    out["trace.slowdown"] = (untraced / traced_rate, "x")
    return out


def report(name, seed, results, metrics, extra) -> None:
    rounds = [r for res in results for r in res.rounds]
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for res in results for p in res.problems]
    print(f"workload {name}  seed {seed}  rounds {len(rounds)}  ops {attempted}  failed {failed}")
    for metric, (value, unit) in {**metrics, **extra, "failed_ratio": (failed / attempted, "ratio")}.items():
        print(f"  {metric:34s} {value:14.6g} {unit}")
    print(f"  correct: {'yes' if not problems else 'NO'}")
    for p in problems[:20]:
        print(f"    {p}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate()
            except BaseException:
                proc.terminate()  # not kill: the child reaps its own serve process
                proc.wait()
                raise
        lines = out.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "linkstate" / "__init__.py").is_file():
        print(f"error: no linkstate package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # a terminated run still unwinds, so the serve child is always reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    from tracer import NullTracer, Tracer

    if not args.trace:
        res = run_workload(args.workload, args.seed, args.seconds, NullTracer(), sample_speed=True)
        metrics, speed = end_to_end(res)
        report(args.workload, args.seed, [res], metrics, {**speed, **res.extra})
        return 0

    plain = run_workload(args.workload, args.seed, args.seconds / 2, NullTracer())
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_workload(args.workload, args.seed, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    spans = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans)
    print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    report(args.workload, args.seed, [plain, traced], per_layer(plain, traced, tracer), {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
