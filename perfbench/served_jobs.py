"""Workload ``served-jobs``: closed-loop clients against the job front doors.

``nproc`` client threads each submit a job, poll until it resolves, and
only then submit the next.  The same seeded job stream runs in two
phases: against the ``repro serve`` defaults (an in-process
``BatchService`` in thread mode with ``workers = nproc`` behind a
``ServiceServer``), then against a ``ClusterCoordinator`` with one
``repro node`` subprocess.  Job bodies are tiny, so HTTP, JSON, the
admission queue, the scheduler, leases and dispatch dominate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

from harness import (CHECKOUT, Run, check, derive_rng,
                     derive_seed, digest, median, nproc, percentile,
                     strip_timing)
import programs

#: Client poll interval (s): well below the shortest job (a small
#: ``vp_run``: about 10 ms in-process, 15-25 ms through a door), and
#: long enough that polling does not dominate the GIL of the in-process
#: service.
POLL_INTERVAL = 0.005
#: The node's idle poll interval (s): as short, but not a multiple of
#: the client's, so the two loops do not lock into one phase for a run.
NODE_POLL_INTERVAL = 0.007
#: Jobs each phase completes at least: ten samples beyond p90.
MIN_JOBS = 100
#: Each phase runs in this many slices, alternating with the other
#: phase's, so that both see the same host; rates are medians over
#: slices.
SLICES = 6
PAYLOADS_PER_KIND = 8
#: The doors' threads, and the node polling the in-process coordinator,
#: stay busy throughout and would skew an in-process probe; jobs are
#: short, so the host speed is sampled throughout each phase.
PROBE_IN_HELPER = True
#: One block of the job stream; the seed shuffles each block.  Two
#: fifths are ``vp_run``, two fifths ``fault_campaign`` and one fifth
#: ``verify``, so p50 and p90 fall inside a kind's spread rather than
#: on the boundary between two kinds.
BLOCK = ("vp_run", "vp_run_compiled", "fault_campaign", "fault_campaign",
         "verify")
KINDS = ("vp_run", "vp_run_compiled", "fault_campaign", "verify")
STREAM_BLOCKS = 2_000


def make_payloads(seed: int) -> dict:
    payloads = {kind: [] for kind in KINDS}
    for i in range(PAYLOADS_PER_KIND):
        source = programs.compute(derive_rng(seed, "vp_run", i),
                                  iters=1_000).source
        payloads["vp_run"].append(("vp_run", {"source": source}))
        payloads["vp_run_compiled"].append(
            ("vp_run", {"source": source, "backend": "compiled"}))
        payloads["fault_campaign"].append(("fault_campaign", {
            "source": programs.campaign(
                derive_rng(seed, "fault_campaign", i), 100).source,
            "mutants": 10, "seed": derive_seed(seed, "mutants", i)}))
        payloads["verify"].append(("verify", {
            "corpus": "torture:1", "matrix": "interp:compiled",
            "seed": derive_seed(seed, "torture", i)}))
    return payloads


def make_stream(seed: int) -> list:
    rng = derive_rng(seed, "stream")
    stream = []
    for _ in range(STREAM_BLOCKS):
        block = list(BLOCK)
        rng.shuffle(block)
        stream.extend((label, rng.randrange(PAYLOADS_PER_KIND))
                      for label in block)
    return stream


class Door:
    """One front door: a URL plus whatever must be stopped afterwards."""

    def __init__(self, name: str, url: str, close) -> None:
        self.name = name
        self.url = url
        self._close = close

    def close(self) -> None:
        close, self._close = self._close, None
        if close is not None:
            close()


def start_serve() -> Door:
    from repro.serve import BatchService
    from repro.serve.api import ServiceServer

    service = BatchService(workers=nproc(), mode="thread")
    service.start()
    server = ServiceServer(service, port=0).start()
    return Door("serve", server.url, lambda: server.close(drain=False))


def _die_with_parent():
    """A ``preexec_fn`` asking Linux to SIGTERM the node when this
    process dies, so a killed benchmark leaves no node behind (the node
    drains on SIGTERM); ``None`` elsewhere."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes
    import signal

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    pr_set_pdeathsig = 1
    return lambda: prctl(pr_set_pdeathsig, int(signal.SIGTERM))


def start_cluster() -> Door:
    from repro.cluster import ClusterCoordinator

    coordinator = ClusterCoordinator(port=0).start()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CHECKOUT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    node = subprocess.Popen(
        [sys.executable, "-m", "repro", "node",
         "--coordinator", coordinator.url, "--name", "bench-node",
         "--poll-interval", str(NODE_POLL_INTERVAL)],
        env=env, cwd=str(CHECKOUT), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, preexec_fn=_die_with_parent())

    def close():
        if node.poll() is None:
            node.terminate()
        try:
            node.wait(timeout=30)
        except subprocess.TimeoutExpired:
            node.kill()
            node.wait()
        coordinator.shutdown(drain=False)

    door = Door("cluster", coordinator.url, close)
    deadline = time.monotonic() + 120
    while len(coordinator.nodes) < 1:
        if node.poll() is not None or time.monotonic() > deadline:
            close()
            raise RuntimeError("the repro node never attached")
        time.sleep(0.01)
    return door


class Client:
    """One closed-loop client thread's submit/poll cycle."""

    def __init__(self, run: Run, url: str) -> None:
        from repro.serve.client import ServiceClient

        self.run = run
        self.client = ServiceClient(url, timeout=60)

    def job(self, kind: str, payload: dict, group: str) -> dict:
        from repro.serve.client import BackpressureError, ServiceError

        tracer = self.run.tracer
        rejected = polls = 0
        with tracer.span("job", group=group):
            start = time.perf_counter()
            while True:
                try:
                    with tracer.span("ServiceClient.submit"):
                        submitted = self.client.submit(kind, payload)
                    break
                except BackpressureError as exc:
                    rejected += 1
                    time.sleep(exc.retry_after or POLL_INTERVAL)
            submit_s = time.perf_counter() - start
            while True:
                try:
                    with tracer.span("ServiceClient.result"):
                        view = self.client.result(submitted["id"])
                    break
                except ServiceError as exc:
                    if exc.status != 409:
                        raise
                polls += 1
                time.sleep(POLL_INTERVAL)
            latency = time.perf_counter() - start
        return {"view": view, "latency": latency, "submit": submit_s,
                "polls": polls, "rejected": rejected}


def run_slice(run: Run, door: Door, stream: list, first: int,
              payloads: dict, direct: dict, seconds: float,
              min_jobs: int) -> dict:
    """Closed-loop clients against one door for ``seconds`` and at least
    ``min_jobs`` jobs, from job ``first`` of the stream on.  Times are in
    reference seconds at the median host speed sampled during the
    slice."""
    lock = threading.Lock()
    position = [first]
    samples = []
    errors = []

    def worker() -> None:
        client = Client(run, door.url)
        while True:
            with lock:
                if (time.perf_counter() >= deadline
                        and len(samples) >= min_jobs) \
                        or position[0] >= len(stream):
                    return
                n = position[0]
                position[0] += 1
            label, which = stream[n]
            kind, payload = payloads[label][which]
            try:
                sample = client.job(kind, payload, f"{door.name}-{n}")
            except Exception as exc:  # noqa: BLE001 - counted, reported
                with lock:
                    errors.append(f"{door.name} job {n}: {exc!r}")
                    run.operation([f"{door.name}: job {n} raised {exc!r}"])
                continue
            view = sample["view"]
            problems = []
            check(problems, view.get("state") == "succeeded",
                  f"{door.name}: {label} job ended {view.get('state')}: "
                  f"{view.get('error')}")
            check(problems, strip_timing(view.get("result"))
                  == direct[(label, which)],
                  f"{door.name}: {label} result differs from execute_job")
            sample.update(label=label, end=time.perf_counter(),
                          queue=view.get("queue_seconds") or 0.0,
                          run_s=view.get("run_seconds") or 0.0)
            with lock:
                run.operation(problems)
                samples.append(sample)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(nproc())]
    with run.clock.window() as window:
        start = time.perf_counter()
        deadline = start + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = max(s["end"] for s in samples) - start if samples else seconds
    factor = window.factor
    for sample in samples:
        for key in ("latency", "submit", "queue", "run_s"):
            sample[key] *= factor
    return {"samples": samples, "wall": wall * factor, "errors": errors,
            "host_wall": wall, "factor": factor, "next": position[0]}


def setup(run: Run):
    from repro.serve import execute_job

    payloads = make_payloads(run.seed)
    stream = make_stream(run.seed)
    direct, direct_s = {}, {kind: [] for kind in KINDS}
    for label in KINDS:
        for which, (kind, payload) in enumerate(payloads[label]):
            with run.tracer.span("execute_job", group=f"direct-{label}"):
                start = time.perf_counter()
                result = execute_job(kind, dict(payload))
                direct_s[label].append(time.perf_counter() - start)
            # Compared after a JSON round trip, as the doors return it.
            direct[(label, which)] = json.loads(json.dumps(
                strip_timing(result)))
    doors = []
    try:
        doors.append(start_serve())
        doors.append(start_cluster())
        # Warm-up: one job of each kind through each door.
        for door in doors:
            client = Client(run, door.url)
            for label in KINDS:
                kind, payload = payloads[label][0]
                view = client.job(kind, payload,
                                  f"warmup-{door.name}")["view"]
                problems = []
                check(problems, view.get("state") == "succeeded"
                      and strip_timing(view.get("result"))
                      == direct[(label, 0)],
                      f"{door.name}: warm-up {label} job failed or differs")
                run.operation(problems)
    except BaseException:
        for door in doors:
            door.close()
        raise
    state = {"payloads": payloads, "stream": stream, "direct": direct,
             "doors": doors}
    return state, {f"direct_s.{label}": median(direct_s[label])
                   for label in KINDS}


#: Part metric prefix per door.
PREFIX = {"serve": "served", "cluster": "cluster"}


def measure(run: Run, state: dict, seconds: float) -> dict:
    """Both phases for half of ``seconds`` each, in :data:`SLICES`
    alternating slices; each phase takes up the stream where its last
    slice stopped."""
    doors = state["doors"]
    phases = {door.name: {"samples": [], "slices": [], "errors": [],
                          "next": 0} for door in doors}
    for _ in range(SLICES):
        for door in doors:
            phase = phases[door.name]
            part = run_slice(run, door, state["stream"], phase["next"],
                             state["payloads"], state["direct"],
                             seconds / (SLICES * len(doors)),
                             -(-MIN_JOBS // SLICES))
            phase["samples"] += part["samples"]
            phase["errors"] += part["errors"]
            phase["slices"].append(part)
            phase["next"] = part["next"]
    return phases


def _rate(phase: dict) -> float:
    """Jobs per second: the median over the phase's slices."""
    return median(len(part["samples"]) / part["wall"]
                  for part in phase["slices"])


def summary(phases: dict):
    """Each phase's jobs per second, and the median over its slices of
    their median latency."""
    return ([_rate(p) for p in phases.values()],
            [median(percentile([s["latency"] for s in part["samples"]], 50)
                    for part in p["slices"]) for p in phases.values()])


def parts(phases: dict) -> dict:
    out = {}
    for door, phase in phases.items():
        latencies = [s["latency"] * 1e3 for s in phase["samples"]]
        prefix = PREFIX[door]
        out[f"{prefix}_jobs_per_s"] = (_rate(phase), "1/s")
        out[f"{prefix}_latency_p50_ms"] = (percentile(latencies, 50), "ms")
        out[f"{prefix}_latency_p90_ms"] = (percentile(latencies, 90), "ms")
    return out


def close(state: dict) -> None:
    for door in state["doors"]:
        door.close()


def record(run: Run, state: dict, phases: dict) -> None:
    run.record.update({
        "poll_interval_s": POLL_INTERVAL,
        "clients": nproc(),
        "serve": {"mode": "thread", "workers": nproc()},
        "cluster": {"nodes": 1, "node_capacity": 1,
                    "node_poll_interval_s": NODE_POLL_INTERVAL},
        "jobs": {door: [len(part["samples"]) for part in p["slices"]]
                 for door, p in phases.items()},
        "host_wall_s": {door: [part["host_wall"] for part in p["slices"]]
                        for door, p in phases.items()},
        "reference_factor": {door: [part["factor"] for part in p["slices"]]
                             for door, p in phases.items()},
        "rejected_429": {door: sum(s["rejected"] for s in p["samples"])
                         for door, p in phases.items()},
        "errors": [e for p in phases.values() for e in p["errors"]][:10],
        "sim_digest": digest(sorted(
            [f"{label}.{which}", result]
            for (label, which), result in state["direct"].items())),
    })


def per_layer(run: Run, phases: dict, state: dict, setups: list) -> None:
    for label in KINDS:
        run.metric(f"direct_ms.{label}",
                   median(p[f"direct_s.{label}"] for p in setups) * 1e3,
                   "ms")
    for door, phase in phases.items():
        samples = phase["samples"]
        queue = [s["queue"] * 1e3 for s in samples]
        run.metric(f"{door}.submit_ms",
                   median(s["submit"] * 1e3 for s in samples), "ms")
        run.metric(f"{door}.queue_ms.p50", percentile(queue, 50), "ms")
        run.metric(f"{door}.queue_ms.p90", percentile(queue, 90), "ms")
        for label in KINDS:
            run.metric(f"{door}.run_ms.{label}",
                       median(s["run_s"] * 1e3 for s in samples
                              if s["label"] == label), "ms")
        run.metric(f"{door}.overhead_ms",
                   median((s["latency"] - s["run_s"]) * 1e3
                          for s in samples), "ms")
        run.metric(f"{door}.polls_per_job",
                   sum(s["polls"] for s in samples) / len(samples), "count")
        run.metric(f"{door}.rejected_429",
                   sum(s["rejected"] for s in samples), "count")
