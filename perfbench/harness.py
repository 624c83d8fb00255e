"""Shared benchmark plumbing: spans, statistics, checks, the run record.

Nothing here imports the program under test, so ``run.py`` can time the
program's imports as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional

from probe import probe_rate

CHECKOUT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Times each workload's set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3


def nproc() -> int:
    """CPUs this process may run on (the container's share, not the
    host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def derive_rng(seed: int, *labels) -> random.Random:
    """An independent PRNG for one input of one workload.

    Every generated input takes its randomness from the workload seed
    through a labelled stream, so adding an input never shifts another.
    """
    text = ":".join([str(seed), *map(str, labels)])
    return random.Random(int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "big"))


def derive_seed(seed: int, *labels) -> int:
    return derive_rng(seed, *labels).randrange(1 << 31)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def strip_timing(value):
    """``value`` without its host-time fields, for exact comparison."""
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items()
                if k != "elapsed_seconds"}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Host clock
# ----------------------------------------------------------------------
#
# On a shared host the speed of the whole CPU moves by tens of percent
# within seconds (other tenants, clock changes), far more than a change
# to the program is meant to show.  Every timing is therefore scaled by
# the host speed measured over its window and reported in *reference
# seconds*: host seconds times the measured probe rate over
# REFERENCE_PROBE_RATE.  The probes are fixed pure-Python loops that
# share no code with the program, so a faster program still reads
# faster while a slower host does not.

#: Probe operations per reference second.  It defines the unit; it is
#: not a measurement to compare against.
REFERENCE_PROBE_RATE = 5_000_000.0


class HostClock:
    """Converts host seconds to reference seconds.

    In-process, a window's rate is the geometric mean of probes taken
    just before and just after it (a probe is reused while it is fresh).
    With ``helper=True`` a separate ``probe.py`` process samples host
    speed every 50 ms throughout, and a window's rate is the mean of
    the samples inside it; this suits workloads whose calls are short or
    whose own process keeps background threads busy.  :meth:`close`
    stops the helper.
    """

    FRESH = 0.05

    def __init__(self, helper: bool = False) -> None:
        self.rates: List[float] = []
        self._last = (-1.0, 0.0)
        self._helper = None
        if helper:
            self._helper = subprocess.Popen(
                [sys.executable, str(pathlib.Path(__file__).with_name(
                    "probe.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def probe(self) -> float:
        """In-process: probe now.  With the helper: the mean sampled rate
        since the previous call, which starts a new window."""
        if self._helper is None:
            rate = probe_rate()
        else:
            self._helper.stdin.write("\n")
            self._helper.stdin.flush()
            rate = float(self._helper.stdout.readline())
        self.rates.append(rate)
        self._last = (time.perf_counter(), rate)
        return rate

    def close(self) -> None:
        if self._helper is not None:
            self._helper.stdin.close()
            try:
                self._helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._helper.kill()
                self._helper.wait()
            self._helper.stdout.close()
            self._helper = None

    def start(self) -> float:
        """Open a window; returns the rate :meth:`stop` needs."""
        if self._helper is not None:
            return self.probe()
        when, rate = self._last
        if time.perf_counter() - when <= self.FRESH:
            return rate
        return self.probe()

    def stop(self, before: float) -> float:
        """Close a window; returns its reference seconds per host
        second."""
        after = self.probe()
        if self._helper is None:
            after = (before * after) ** 0.5
        return after / REFERENCE_PROBE_RATE

    def window(self) -> "_Window":
        return _Window(self)


class _Window:
    """``with clock.window() as w:`` — afterwards ``w.factor`` converts
    host seconds measured inside the window to reference seconds."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.factor = 1.0

    def __enter__(self):
        self.before = self.clock.start()
        return self

    def __exit__(self, *exc):
        self.factor = self.clock.stop(self.before)
        return False


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "group", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str,
                 group: Optional[str]) -> None:
        self.tracer = tracer
        self.name = name
        self.group = group

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1].id if stack else None
        if self.group is None and stack:
            self.group = stack[-1].group
        self.id = self.tracer._next_id()
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer._record(self, end)
        return False


class Tracer:
    """In-memory span recorder around calls into the program.

    A span records its name, start, end, parent span and group; spans of
    one job share the group.  Disabled, :meth:`span` returns a shared
    no-op context manager.  :meth:`write_chrome` exports the spans as a
    Chrome trace when the run ends.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._tids: Dict[int, int] = {}
        self.origin = time.perf_counter()

    def span(self, name: str, group: Optional[str] = None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, group)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _record(self, span: _Span, end: float) -> None:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.setdefault(ident, len(self._tids) + 1)
            self.spans.append({
                "name": span.name, "id": span.id, "parent": span.parent,
                "group": span.group, "start": span.start, "end": end,
                "tid": tid})

    def write_chrome(self, path: pathlib.Path) -> None:
        events = [{
            "name": s["name"], "ph": "X", "pid": 1, "tid": s["tid"],
            "ts": round((s["start"] - self.origin) * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "args": {"id": s["id"], "parent": s["parent"],
                     "group": s["group"]},
        } for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------

class Run:
    """One benchmark run: its metrics, operation counts and record."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(trace)
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, dict] = {}
        #: Names of metrics that repeat exactly for a fixed seed.
        self.exact: List[str] = []
        self.record: Dict[str, object] = {}

    def operation(self, problems: List[str]) -> None:
        """Count one attempted operation; ``problems`` lists its failed
        output checks (empty when every check passed)."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append("; ".join(problems))

    def timed(self, name: str, call, *args, **kwargs):
        """``call(*args, **kwargs)`` inside span ``name``; returns its
        reference seconds and its result."""
        with self.tracer.span(name), self.clock.window() as window:
            start = time.perf_counter()
            result = call(*args, **kwargs)
            seconds = time.perf_counter() - start
        return seconds * window.factor, result

    def metric(self, name: str, value: float, unit: str,
               exact: bool = False) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if exact:
            self.exact.append(name)

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": self.metrics,
        })


def manifest() -> dict:
    """``BENCHMARK.json`` at the checkout root: the metric names and
    units every run must print."""
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def end_to_end(workload, rounds) -> Dict[str, float]:
    """The end-to-end metrics, the same on every workload: ``throughput``
    is the geometric mean of the work rates of the workload's parts and
    ``latency_ms`` the geometric mean of each part's median wait for one
    call (see ``summary`` in each workload module)."""
    rates, waits = workload.summary(rounds)
    return {"throughput": statistics.geometric_mean(rates),
            "latency_ms": statistics.geometric_mean(waits) * 1e3}


#: End-to-end metrics where higher is better.
HIGHER = ("throughput",)


def drive(run: Run, import_s: float, workload) -> None:
    """Run one workload module through set-up, measurement and report.

    Times are in reference seconds (see :class:`HostClock`; a module
    with ``PROBE_IN_HELPER = True`` samples from a helper process).  The
    module provides ``setup(run) -> (state, phase_seconds)``,
    ``measure(run, state, seconds) -> rounds``, ``summary(rounds) ->
    (part rates, part median waits in seconds)``, ``parts(rounds) ->
    {name: (value, unit)}`` (the rate or latency of each part, reported
    per layer), ``per_layer(run, rounds, state, phases)``,
    ``record(run, state, rounds)`` and ``close(state)``.  Set-up runs
    :data:`SETUP_REPEATS` times and only the last state is kept.  An
    untraced run measures for ``run.seconds``; a traced run measures half
    the time untraced and half traced, reports the parts of the untraced
    half, the per-layer metrics of the traced half and, per end-to-end
    metric, the relative loss of the traced half against the untraced
    one.
    """
    if getattr(workload, "PROBE_IN_HELPER", False):
        run.clock = HostClock(helper=True)
    setups = []
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            with run.clock.window() as window:
                start = time.perf_counter()
                state, phases = workload.setup(run)
                seconds = time.perf_counter() - start
            phases = {key: value * window.factor
                      for key, value in phases.items()}
            setups.append((seconds * window.factor, phases))
        setup_s = import_s + median(s for s, _ in setups)
        units = {m["name"]: m["unit"] for m in manifest()["end_to_end"]}
        if not run.trace:
            rounds = workload.measure(run, state, run.seconds)
            for name, value in end_to_end(workload, rounds).items():
                run.metric(name, value, units[name])
            run.metric("setup_s", setup_s, units["setup_s"])
        else:
            run.tracer.enabled = False
            plain_rounds = workload.measure(run, state, run.seconds / 2)
            run.tracer.enabled = True
            rounds = workload.measure(run, state, run.seconds / 2)
            plain = end_to_end(workload, plain_rounds)
            traced = end_to_end(workload, rounds)
            for name, value in plain.items():
                loss = (value / traced[name] if name in HIGHER
                        else traced[name] / value)
                run.metric(f"trace.overhead.{name}", loss - 1, "ratio")
            for name, (value, unit) in workload.parts(plain_rounds).items():
                run.metric(name, value, unit)
            workload.per_layer(run, rounds, state,
                               [phases for _, phases in setups])
        workload.record(run, state, rounds)
        rates = run.clock.rates
        run.record["host_probe_rate"] = {
            "reference": REFERENCE_PROBE_RATE, "samples": len(rates),
            "median": median(rates), "min": min(rates), "max": max(rates)}
    finally:
        if state is not None:
            workload.close(state)
        run.clock.close()


#: Units a per-layer metric of a layer the workload does not call may
#: read 0 in.  A time cannot: it would read 0 on every run.
ZERO_UNITS = ("count", "ratio")


def complete(run: Run) -> None:
    """Bring the metrics to the manifest's list for this kind of run.

    A traced run prints every per-layer metric of the manifest: a count
    or ratio of a layer this workload does not call reads 0, and the run
    record lists the names it measured.  The workload's own per-layer
    times and rates, which only it can measure, go to the run record's
    ``layers``.  A metric missing from an untraced run, or one whose
    unit differs from the manifest's, is a defect of the benchmark and
    raises.
    """
    data = manifest()
    wanted = data["per_layer"] if run.trace else data["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name, metric in run.metrics.items():
        if name in units and units[name] != metric["unit"]:
            raise ValueError(f"metric {name} is in {metric['unit']}, "
                             f"BENCHMARK.json says {units[name]}")
    if not run.trace:
        missing = sorted(set(units) - set(run.metrics))
        if missing:
            raise ValueError(f"end-to-end metrics not measured: {missing}")
        return
    for name, unit in units.items():
        if name not in run.metrics and unit not in ZERO_UNITS:
            raise ValueError(f"per-layer metric {name} ({unit}) was not "
                             "measured")
    run.record["measured_metrics"] = sorted(set(run.metrics) & set(units))
    run.record["layers"] = {name: metric for name, metric
                            in sorted(run.metrics.items())
                            if name not in units}
    run.metrics = {name: run.metrics.get(name, {"value": 0, "unit": unit})
                   for name, unit in units.items()}


def check(problems: List[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git
    (which could read outside the checkout); ``None`` when absent."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of the program's source tree, for checkouts without git."""
    sha = hashlib.sha256()
    for path in sorted((CHECKOUT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(CHECKOUT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def host_fingerprint() -> Dict[str, object]:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
    }
