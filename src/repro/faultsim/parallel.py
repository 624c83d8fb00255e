"""Parallel fault-campaign engine: mutant chunks on :mod:`repro.pool`.

Campaigns are embarrassingly parallel after the golden run — every mutant
simulation is independent — so this module fans the fault list out to
:class:`repro.pool.Workers`:

* workers are **seeded once** with a picklable :class:`CampaignSpec`
  (program image, ISA name, budgets, the parent's golden reference)
  whose :meth:`~CampaignSpec.build` makes their own
  :class:`~repro.faultsim.campaign.FaultCampaign`;
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
* every chunk returns with its **original fault indices**, so the
  merged (:func:`repro.pool.merge`) ``CampaignResult.results`` ordering
  is byte-identical to a sequential run;
* per-worker throughput (mutants/s, outcome counts) is merged into the
  parent session's :class:`~repro.telemetry.MetricsRegistry` and event
  log.

Entry point: :meth:`FaultCampaign.run(faults, jobs=N)
<repro.faultsim.campaign.FaultCampaign.run>` (or ``repro faults --jobs N``
on the command line).  If the platform cannot start worker processes,
the pool warns and classifies the chunks in-process instead of crashing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..asm import Program
from ..pool import Workers, merge
from ..vp.backends import DEFAULT_BACKEND

__all__ = ["CampaignSpec", "run_parallel", "default_chunk_size"]

#: Upper bound on mutants per chunk — small enough that work stealing can
#: rebalance around slow (hang/budget-exhausting) mutants.
MAX_CHUNK = 64

#: The :class:`CampaignSpec` fields that are ``FaultCampaign`` options.
_OPTIONS = ("budget_multiplier", "min_budget", "golden_budget",
            "reuse_machine", "checkpoints", "digest_interval", "backend")


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

    def build(self):
        """A worker's own campaign, on the parent's golden reference."""
        from ..isa.decoder import IsaConfig
        from .campaign import FaultCampaign

        campaign = FaultCampaign(
            self.program, isa=IsaConfig.from_string(self.isa_name),
            **{name: getattr(self, name) for name in _OPTIONS})
        # Reuse the parent's golden reference: workers never re-run it.
        campaign._golden = self.golden
        # One golden sweep builds every checkpoint this worker will need;
        # chunk arrival order then only ever triggers warm restores.
        campaign.prepare_checkpoints(self.checkpoint_triggers)
        return campaign


def _spec_for(campaign, faults: Sequence = ()) -> CampaignSpec:
    from .faults import TRANSIENT

    triggers: Tuple[int, ...] = ()
    if campaign._checkpoints_active:
        triggers = tuple(sorted({
            fault.trigger for fault in faults if fault.kind == TRANSIENT
        }))
    return CampaignSpec(
        program=campaign.program, isa_name=campaign.isa.name,
        golden=campaign.golden(), checkpoint_triggers=triggers,
        **{name: getattr(campaign, name) for name in _OPTIONS})


def _classify(campaign, faults: Sequence) -> Tuple[List, Dict[str, int]]:
    """Classify one chunk of faults on a worker's campaign.

    The checkpoint stats are the worker's *cumulative* counters (the
    parent diffs consecutive reports per pid).
    """
    return ([campaign.run_one(fault) for fault in faults],
            campaign.checkpoint_stats())


def default_chunk_size(total: int, jobs: int) -> int:
    """Chunks sized for load balancing: ~8 chunks per worker, capped."""
    if total <= 0:
        return 1
    return max(1, min(MAX_CHUNK, -(-total // (jobs * 8))))


def run_parallel(
    campaign,
    faults: Sequence,
    jobs: int,
    on_progress: Optional[Callable[[Dict], None]] = None,
    progress_interval: float = 1.0,
):
    """Run ``campaign`` over ``faults`` on ``jobs`` worker processes.

    The returned :class:`~repro.faultsim.campaign.CampaignResult`
    matches the sequential result ordering and classification exactly.
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
    telemetry = campaign.telemetry
    events = telemetry.events
    metrics = telemetry.metrics.namespace("faultsim.campaign")
    track = telemetry.enabled or on_progress is not None
    size = default_chunk_size(total, jobs)
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
    classified: List = []
    worker_stats: Dict[int, Dict] = {}
    # Per-pid last-seen cumulative checkpoint counters: chunk reports are
    # cumulative, so the first delta also captures the worker-init
    # checkpoint build.
    ckpt_seen: Dict[int, Dict[str, int]] = {}
    ckpt_totals: Dict[str, int] = {}
    start = time.perf_counter()
    last_report = start
    done = 0
    with Workers(jobs, spec) as workers:
        for indices, (results, ckpt_stats), busy_seconds, pid in \
                workers.map(_classify, chunks):
            classified.extend(zip(indices, results))
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
                campaign._report(on_progress, done, total, now - start)
                last_report = now
    elapsed = time.perf_counter() - start
    result = CampaignResult(golden, merge(classified, total), elapsed)
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
    campaign._finish(result, on_progress, jobs=jobs)
    return result
