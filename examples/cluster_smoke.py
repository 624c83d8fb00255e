#!/usr/bin/env python3
"""End-to-end smoke test for the distributed cluster fabric.

Starts ``repro coordinator`` plus two ``repro node`` workers as real
subprocesses, submits a seeded fault-injection campaign sharded four
ways over HTTP, polls it to completion, and asserts the merged result
is byte-identical to running the same spec in a single process through
``execute_job``.  Finishes with a graceful SIGTERM drain of both nodes
and a drained coordinator shutdown.  Used by CI (cluster-smoke job) and
runnable by hand:

    python examples/cluster_smoke.py

Exits 0 on success, non-zero on any mismatch or timeout.  The whole run
is bounded by HARD_TIMEOUT so a wedged process cannot hang CI.  The
coordinator's stderr goes to a temporary file that is printed when the
run fails.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error

HARD_TIMEOUT = 240.0          # seconds for the entire smoke run
PORT = int(os.environ.get("SMOKE_CLUSTER_PORT", "18973"))
MUTANTS = 18
SEED = 9
SHARDS = 4

CAMPAIGN_SRC = """
_start:
    li s0, 40
    li s1, 0
loop:
    add s1, s1, s0
    slli t0, s1, 1
    xor s1, s1, t0
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
"""

PAYLOAD = {"source": CAMPAIGN_SRC, "mutants": MUTANTS, "seed": SEED}


def canon(result):
    """Campaign result minus wall-clock fields, as sorted JSON bytes."""
    view = json.loads(json.dumps(result))
    view.pop("elapsed_seconds", None)
    if isinstance(view.get("campaign"), dict):
        view["campaign"].pop("elapsed_seconds", None)
    return json.dumps(view, sort_keys=True)


def wait_for(predicate, deadline, what):
    while time.monotonic() < deadline:
        try:
            if predicate():
                return
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.2)
    raise SystemExit(f"timed out waiting for {what}")


def main():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    sys.path.insert(0, src)
    from repro.serve.client import ServiceClient
    from repro.serve.executors import execute_job
    from repro.serve.jobs import null_context

    deadline = time.monotonic() + HARD_TIMEOUT
    direct = canon(execute_job("fault_campaign", dict(PAYLOAD),
                               null_context()))
    print(f"direct run: {MUTANTS} mutants, seed {SEED}")

    env = dict(os.environ, PYTHONPATH=src)
    url = f"http://127.0.0.1:{PORT}"
    coordinator_log = tempfile.TemporaryFile(mode="w+")
    coordinator = subprocess.Popen(
        [sys.executable, "-m", "repro", "coordinator",
         "--port", str(PORT)],
        env=env, stdout=subprocess.DEVNULL, stderr=coordinator_log)
    nodes = []
    client = ServiceClient(url, timeout=10)
    passed = False
    try:
        wait_for(lambda: client.health()["status"] == "ok", deadline,
                 "coordinator health")
        nodes = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "node",
                 "--coordinator", url, "--name", f"smoke-{i}",
                 "--poll-interval", "0.05"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for i in range(2)
        ]
        wait_for(
            lambda: len(client.stats()["service"]["cluster"]["nodes"]) == 2,
            deadline, "both nodes to attach")
        print("coordinator up, 2 nodes attached")

        job = client.submit("fault_campaign", dict(PAYLOAD), shards=SHARDS)
        print(f"submitted job {job['id']} ({SHARDS} shards)")
        done = client.wait(job["id"],
                           timeout=max(1.0, deadline - time.monotonic()),
                           poll_interval=0.2)
        if done["state"] != "succeeded":
            raise SystemExit(f"job finished in state {done['state']}: "
                             f"{done.get('error')}")
        if canon(done["result"]) != direct:
            raise SystemExit(
                "cluster result not byte-identical to direct run")
        print(f"cluster run byte-identical: {done['result']['counts']}")

        # The coordinator counts completed work items synchronously
        # (per-node stats only refresh on heartbeats, which may lag a
        # short job), so assert on the work ledger.
        cluster = client.stats()["service"]["cluster"]
        done_items = cluster["work"]["done"]
        if done_items != SHARDS:
            raise SystemExit(f"expected {SHARDS} completed shard items, "
                             f"saw {done_items}")
        print(f"work ledger: {done_items} shard items done across "
              f"{len(cluster['nodes'])} nodes")

        # Graceful drain: SIGTERM each node, then drain the coordinator.
        for node in nodes:
            node.send_signal(signal.SIGTERM)
        for node in nodes:
            node.wait(timeout=max(1.0, deadline - time.monotonic()))
            if node.returncode != 0:
                raise SystemExit(
                    f"node exited {node.returncode} after SIGTERM")
        client.shutdown(drain=True)
        coordinator.wait(timeout=max(1.0, deadline - time.monotonic()))
        if coordinator.returncode != 0:
            raise SystemExit(
                f"coordinator exited {coordinator.returncode}")
        print("smoke test passed: sharded cluster run byte-identical, "
              "graceful drain clean")
        passed = True
    finally:
        for proc in nodes + [coordinator]:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        if not passed:
            coordinator_log.seek(0)
            print(f"--- coordinator stderr (exit {coordinator.poll()}) ---\n"
                  f"{coordinator_log.read()}", file=sys.stderr)
        coordinator_log.close()


if __name__ == "__main__":
    main()
