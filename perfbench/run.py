"""Same-host, layer-by-layer benchmark of the Scale4Edge reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload guest-loops --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics and the tracing overhead, and writes the spans as a
Chrome trace under ``perfbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is the run record (commit, host, pool
sizes, digest of the simulated statistics).  The exit code is 0 only
when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from harness import (CHECKOUT, OUT_DIR, Run, complete, drive, git_sha,
                     host_fingerprint, source_digest)

WORKLOADS = {
    "guest-loops": "guest_loops",
    "campaigns": "campaigns",
    "served-jobs": "served_jobs",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    with run.clock.window() as window, run.tracer.span("import"):
        start = time.perf_counter()
        import repro.faultsim  # noqa: F401
        import repro.fuzz  # noqa: F401
        import repro.serve  # noqa: F401
        import repro.verify  # noqa: F401
        import repro.vp  # noqa: F401
        import repro.wcet  # noqa: F401
        import_s = time.perf_counter() - start
    import_s *= window.factor

    drive(run, import_s, importlib.import_module(WORKLOADS[args.workload]))
    if run.trace:
        run.metric("setup.import_s", import_s, "s")
    complete(run)

    run.record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": run.trace,
        "git_sha": git_sha(), "source_digest": source_digest(),
        "host": host_fingerprint(),
        "exact_metrics": run.exact,
        "failures": run.failures,
    })
    if run.trace:
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        run.tracer.write_chrome(path)
        run.record["chrome_trace"] = str(path.relative_to(CHECKOUT))
    print("record " + json.dumps(run.record, sort_keys=True))
    print(run.result_line(), flush=True)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
