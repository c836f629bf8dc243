"""Shared pieces of the benchmark: percentiles, memory readings, the speed clock, round loop."""

from __future__ import annotations

import bisect
import gc
import json
import os
import resource
import signal
import time
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM of another live process, from /proc."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of another live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as f:
        text = f.read()
    # the command name may hold spaces; the fields after it are fixed
    fields = text[text.rindex(")") + 2 :].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


KERNEL_PLOTS = 200
REF_NOMINAL_MS = 1.0  # about the reference kernel's time in the host's fast phases


def reference_kernel() -> dict:
    """A fixed piece of pure-Python work shaped like the library's own:
    build a nested tree of small dicts and strings, JSON round-trip it and
    diff the copy against the original. It calls nothing in linkstate, so a
    change to the library cannot change its time; only the machine can."""
    tree = {
        f"p{i:03d}": {"class": "ex.Plot", "state": {"title": f"title {i}", "label": {"text": f"label {i}", "size": i % 40}}}
        for i in range(KERNEL_PLOTS)
    }
    other = json.loads(json.dumps(tree, sort_keys=True))
    other["p007"]["state"]["label"]["size"] = -1

    def diff(a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            return {k: None if k not in b else diff(a.get(k), b[k]) for k in a.keys() | b.keys() if a.get(k) != b.get(k)}
        return b

    return diff(tree, other)


class PlainClock:
    """Wall time, unscaled: the clock of traced runs and of relay-loopback."""

    def mark(self) -> float:
        return time.perf_counter()

    def seconds(self, start: float, end: float) -> float:
        return end - start


class SpeedClock:
    """A clock that times CPU-bound work as if the machine ran in its fast
    phase.

    The host shares its cores: its speed flips between a fast and a slow
    phase every few milliseconds to seconds, and the share of slow time
    drifts over minutes, so a CPU-bound time moves by up to 1.6x between
    runs of the same code. While started, a SIGALRM timer runs the
    reference kernel every PERIOD_S inside whatever the workload is doing
    and records how long it took. seconds() leaves the kernel's own time
    out and scales what is left by REF_NOMINAL_MS over the mean kernel time
    from WINDOW_S before the interval to WINDOW_S after it: the kernel ran
    in the same phases as the work it interrupted. Start it only in a
    single-threaded workload: the signal interrupts the main thread."""

    PERIOD_S = 0.02
    WINDOW_S = 0.1

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter() when each kernel run started
        self.samples_ms: list[float] = []
        self.spent_s = 0.0
        self._busy = False
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        was_enabled = gc.isenabled()
        gc.disable()  # no collection of the workload's heap inside the kernel
        try:
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.at.append(t0)
            self.samples_ms.append((t1 - t0) * 1000)
            self.spent_s += time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        self._tick(signal.SIGALRM, None)  # so seconds() always has a run to scale by
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def mark(self) -> tuple[float, float]:
        """(perf_counter(), kernel seconds so far), read with no kernel
        run between the two."""
        while True:
            spent = self.spent_s
            now = time.perf_counter()
            if spent == self.spent_s:
                return now, spent

    def seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        net = (end[0] - end[1]) - (start[0] - start[1])
        lo = bisect.bisect_left(self.at, start[0] - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, end[0] + self.WINDOW_S)
        if lo == hi:  # no kernel ran near the interval: take the nearest runs
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        window = self.samples_ms[lo:hi]
        return net * REF_NOMINAL_MS * len(window) / sum(window)

    def factor(self) -> float:
        """Mean kernel time over the run, over REF_NOMINAL_MS."""
        return sum(self.samples_ms) / len(self.samples_ms) / REF_NOMINAL_MS


@dataclass
class Round:
    """What one pass of a workload's fixed work produced."""

    ops: int
    timed_s: float
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class Result:
    """A workload run: its rounds plus the figures taken around them."""

    rounds: list[Round]
    setup_samples: list[float]
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)  # metric: (value, unit)
    speed: SpeedClock | None = None  # the clock that scaled the times, if any


def run_rounds(run_round, seconds: float, min_rounds: int = 1) -> list[Round]:
    """Run as many rounds as fit in `seconds`, judged by the last round's
    length, and at least min_rounds.

    Each round starts from a collected heap, so garbage a previous round
    left behind is not collected inside this round's timed operations."""
    start = time.perf_counter()
    rounds: list[Round] = []
    last = 0.0
    while len(rounds) < min_rounds or time.perf_counter() - start + last <= seconds:
        gc.collect()
        t0 = time.perf_counter()
        rounds.append(run_round(len(rounds)))
        last = time.perf_counter() - t0
    return rounds


def time_setups(samples: list[float], n: int, batch: int, set_up, tear_down, clock=PlainClock()) -> None:
    """Add samples until there are n; a sample is the mean time of `batch`
    set-ups in a row, each from a collected heap, tear-downs not timed."""
    while len(samples) < n:
        total = 0.0
        for _ in range(batch):
            gc.collect()
            t0 = clock.mark()
            made = set_up()
            total += clock.seconds(t0, clock.mark())
            tear_down(made)
        samples.append(total / batch)
