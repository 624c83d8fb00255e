"""Parallel fault-campaign engine: a multiprocessing mutant worker pool.

Campaigns are embarrassingly parallel after the golden run — every mutant
simulation is independent — so this module fans the fault list out to a
``multiprocessing`` pool:

* workers are **seeded once** with a picklable :class:`CampaignSpec`
  (program image, ISA name, budgets, the parent's golden reference) and
  build their own :class:`~repro.faultsim.campaign.FaultCampaign`;
* mutants are dispatched in **chunks through the pool's shared task
  queue** — idle workers steal the next chunk, so stragglers (hang
  mutants burning their full instruction budget) don't serialize the
  campaign;
* when checkpointing is active the work list is **trigger-sorted** so
  each chunk covers a contiguous band of checkpoint triggers (mutants
  sharing a trigger land together, warm restores stay local), the spec
  carries the campaign's distinct triggers so every worker builds its
  checkpoint chain in one golden sweep at init, and each chunk reports
  the worker's ``faultsim.checkpoint.*`` counter deltas for the merge;
* every chunk returns with its **original fault indices**, so the merged
  ``CampaignResult.results`` ordering is byte-identical to a sequential
  run;
* per-worker throughput (mutants/s, outcome counts) is merged into the
  parent session's :class:`~repro.telemetry.MetricsRegistry` and event
  log.

Entry point: :meth:`FaultCampaign.run(faults, jobs=N)
<repro.faultsim.campaign.FaultCampaign.run>` (or ``repro faults --jobs N``
on the command line).  If the platform cannot spawn worker processes the
engine warns and falls back to the sequential path instead of crashing.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..asm import Program
from ..vp.backends import DEFAULT_BACKEND

__all__ = ["CampaignSpec", "run_parallel", "default_chunk_size"]

#: Upper bound on mutants per chunk — small enough that work stealing can
#: rebalance around slow (hang/budget-exhausting) mutants.
MAX_CHUNK = 64

# Worker-process state, populated once by _worker_init.
_WORKER_CAMPAIGN = None


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to rebuild the campaign — plain picklable
    data, safe under the ``spawn`` start method."""

    program: Program
    isa_name: str
    budget_multiplier: int
    min_budget: int
    golden_budget: int
    reuse_machine: bool
    golden: "GoldenRun"
    checkpoints: bool = True
    digest_interval: Optional[int] = None
    #: Sorted distinct transient triggers — each worker pre-builds its
    #: checkpoint chain for these in one golden sweep at init.
    checkpoint_triggers: Tuple[int, ...] = ()
    backend: str = DEFAULT_BACKEND


def _spec_for(campaign, faults: Sequence = ()) -> CampaignSpec:
    from .faults import TRANSIENT

    triggers: Tuple[int, ...] = ()
    if campaign._checkpoints_active:
        triggers = tuple(sorted({
            fault.trigger for fault in faults if fault.kind == TRANSIENT
        }))
    return CampaignSpec(
        program=campaign.program,
        isa_name=campaign.isa.name,
        budget_multiplier=campaign.budget_multiplier,
        min_budget=campaign.min_budget,
        golden_budget=campaign.golden_budget,
        reuse_machine=campaign.reuse_machine,
        golden=campaign.golden(),
        checkpoints=campaign.checkpoints,
        digest_interval=campaign.digest_interval,
        checkpoint_triggers=triggers,
        backend=campaign.backend,
    )


def _worker_init(spec: CampaignSpec) -> None:
    """Pool initializer: seed this worker with its own campaign."""
    global _WORKER_CAMPAIGN
    import repro.bmi  # noqa: F401 — register optional ISA modules (Zbb)
    from ..isa.decoder import IsaConfig
    from .campaign import FaultCampaign

    campaign = FaultCampaign(
        spec.program,
        isa=IsaConfig.from_string(spec.isa_name),
        budget_multiplier=spec.budget_multiplier,
        min_budget=spec.min_budget,
        golden_budget=spec.golden_budget,
        reuse_machine=spec.reuse_machine,
        checkpoints=spec.checkpoints,
        digest_interval=spec.digest_interval,
        backend=spec.backend,
    )
    # Reuse the parent's golden reference: workers never re-run it.
    campaign._golden = spec.golden
    # One golden sweep builds every checkpoint this worker will need;
    # chunk arrival order then only ever triggers warm restores.
    campaign.prepare_checkpoints(spec.checkpoint_triggers)
    _WORKER_CAMPAIGN = campaign


def _run_chunk(
    job: Tuple[Tuple[int, ...], Sequence],
) -> Tuple[Tuple[int, ...], List, float, int, Dict[str, int]]:
    """Classify one chunk of faults.

    Returns ``(indices, results, busy_seconds, worker_pid, ckpt_stats)``
    — the original fault indices re-order the merged results, the pid
    attributes the chunk to its worker for the merged telemetry, and the
    checkpoint stats are this worker's *cumulative* counters (the parent
    diffs consecutive reports per pid).
    """
    import os

    indices, faults = job
    started = time.perf_counter()
    results = [_WORKER_CAMPAIGN.run_one(fault) for fault in faults]
    return (indices, results, time.perf_counter() - started, os.getpid(),
            _WORKER_CAMPAIGN.checkpoint_stats())


def default_chunk_size(total: int, jobs: int) -> int:
    """Chunks sized for load balancing: ~8 chunks per worker, capped."""
    if total <= 0:
        return 1
    return max(1, min(MAX_CHUNK, -(-total // (jobs * 8))))


def _make_pool(jobs: int, spec: CampaignSpec):
    """A worker pool on the cheapest available start method.

    ``fork`` (where offered) avoids re-importing the interpreter per
    worker; the job specs stay fully picklable so ``spawn`` platforms
    (macOS/Windows) work identically.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    else:
        ctx = multiprocessing.get_context()
    return ctx.Pool(processes=jobs, initializer=_worker_init,
                    initargs=(spec,))


def run_parallel(
    campaign,
    faults: Sequence,
    jobs: int,
    chunk_size: Optional[int] = None,
    on_progress: Optional[Callable[[Dict], None]] = None,
    progress_interval: float = 1.0,
):
    """Run ``campaign`` over ``faults`` on ``jobs`` worker processes.

    Falls back to the sequential engine (with a warning) when worker
    processes cannot be created.  The returned
    :class:`~repro.faultsim.campaign.CampaignResult` matches the
    sequential result ordering and classification exactly.
    """
    from .campaign import CampaignResult, OUTCOMES

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    faults = list(faults)
    total = len(faults)
    golden = campaign.golden()  # validates the binary before forking
    if jobs == 1 or total <= 1:
        return campaign.run(faults, on_progress=on_progress,
                            progress_interval=progress_interval)

    spec = _spec_for(campaign, faults)
    try:
        pool = _make_pool(jobs, spec)
    except (OSError, ImportError, ValueError, RuntimeError) as exc:
        warnings.warn(
            f"could not start {jobs} campaign workers ({exc}); "
            "falling back to the sequential engine", RuntimeWarning,
            stacklevel=2)
        return campaign.run(faults, on_progress=on_progress,
                            progress_interval=progress_interval)

    telemetry = campaign.telemetry
    events = telemetry.events
    metrics = telemetry.metrics.namespace("faultsim.campaign")
    track = telemetry.enabled or on_progress is not None
    size = chunk_size or default_chunk_size(total, jobs)
    if spec.checkpoint_triggers:
        # Trigger-sorted dispatch: each chunk covers a contiguous band of
        # checkpoint triggers, so a worker's restores stay near the
        # snapshots it just touched.  Non-transients keep their relative
        # order at the front.
        from .faults import TRANSIENT

        def _dispatch_key(pair):
            index, fault = pair
            if fault.kind == TRANSIENT:
                return (1, fault.trigger, index)
            return (0, 0, index)

        work = sorted(enumerate(faults), key=_dispatch_key)
    else:
        work = list(enumerate(faults))
    chunks = [
        (tuple(index for index, _ in work[start:start + size]),
         [fault for _, fault in work[start:start + size]])
        for start in range(0, total, size)
    ]
    if telemetry.enabled:
        events.emit("campaign.started", total=total,
                    golden_instructions=golden.instructions,
                    instruction_budget=campaign.instruction_budget,
                    jobs=jobs, chunks=len(chunks), chunk_size=size)
        metrics.gauge("jobs").set(jobs)

    done_counter = metrics.counter("mutants_done")
    chunk_timer = metrics.timer("chunk_seconds")
    outcome_counters = {
        outcome: metrics.counter(f"outcome.{outcome}")
        for outcome in OUTCOMES
    }
    ordered: List = [None] * total
    worker_stats: Dict[int, Dict] = {}
    # Per-pid last-seen cumulative checkpoint counters: chunk reports are
    # cumulative, so the first delta also captures the worker-init
    # checkpoint build.
    ckpt_seen: Dict[int, Dict[str, int]] = {}
    ckpt_totals: Dict[str, int] = {}
    start = time.perf_counter()
    last_report = start
    done = 0
    try:
        for indices, results, busy_seconds, pid, ckpt_stats in \
                pool.imap_unordered(_run_chunk, chunks):
            for index, mutant in zip(indices, results):
                ordered[index] = mutant
            done += len(results)
            previous = ckpt_seen.get(pid, {})
            for key, value in ckpt_stats.items():
                delta = value - previous.get(key, 0)
                if delta:
                    ckpt_totals[key] = ckpt_totals.get(key, 0) + delta
            ckpt_seen[pid] = ckpt_stats
            done_counter.inc(len(results))
            chunk_timer.observe(busy_seconds)
            stats = worker_stats.setdefault(
                pid, {"mutants": 0, "seconds": 0.0,
                      "outcomes": {outcome: 0 for outcome in OUTCOMES}})
            stats["mutants"] += len(results)
            stats["seconds"] += busy_seconds
            for result in results:
                outcome_counters[result.outcome].inc()
                stats["outcomes"][result.outcome] += 1
            if not track:
                continue
            now = time.perf_counter()
            if now - last_report >= progress_interval:
                progress = campaign._progress(done, total, now - start)
                if telemetry.enabled:
                    events.emit("campaign.progress", **progress)
                if on_progress is not None:
                    on_progress(progress)
                last_report = now
    finally:
        pool.close()
        pool.join()
    elapsed = time.perf_counter() - start
    result = CampaignResult(golden, ordered, elapsed)
    if telemetry.enabled:
        # Merge the per-worker ledger into the session registry: stable
        # worker indices (sorted by pid), throughput, outcome mix.
        for index, pid in enumerate(sorted(worker_stats)):
            stats = worker_stats[pid]
            rate = (stats["mutants"] / stats["seconds"]
                    if stats["seconds"] > 0 else 0.0)
            worker_metrics = metrics.namespace(f"worker.{index}")
            worker_metrics.counter("mutants").inc(stats["mutants"])
            worker_metrics.gauge("busy_seconds").set(
                round(stats["seconds"], 6))
            worker_metrics.gauge("mutants_per_second").set(round(rate, 2))
            events.emit("campaign.worker", worker=index, pid=pid,
                        mutants=stats["mutants"],
                        busy_seconds=round(stats["seconds"], 3),
                        mutants_per_second=round(rate, 2),
                        outcomes=stats["outcomes"])
        if ckpt_totals:
            ckpt_metrics = telemetry.metrics.namespace("faultsim.checkpoint")
            for key, value in sorted(ckpt_totals.items()):
                ckpt_metrics.counter(key).inc(value)
    if track:
        final = campaign._progress(total, total, elapsed)
        if on_progress is not None:
            on_progress(final)
        if telemetry.enabled:
            metrics.gauge("mutants_per_second").set(result.mutants_per_second)
            events.emit(
                "campaign.finished",
                total=total,
                counts=result.counts,
                elapsed_seconds=round(elapsed, 3),
                mutants_per_second=round(result.mutants_per_second, 2),
                normal_termination_fraction=round(
                    result.normal_termination_fraction, 4),
                jobs=jobs,
            )
    return result
