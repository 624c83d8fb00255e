"""Distributed fuzzing: the engine loop on the coordinator, batch
evaluation on the nodes.

Fuzzing is feedback-driven — each batch's mutants depend on the corpus
built from every earlier batch — so the *loop* cannot shard.  What can
is batch evaluation: PR 5's engine already draws a whole batch before
folding any result back, and executions are independent (each node's
evaluator restores a pristine snapshot between inputs).  So the
coordinator runs a :class:`DistributedFuzzEngine` — a stock
:class:`~repro.fuzz.engine.FuzzEngine` whose ``_evaluate_batch`` ships
the batch to the cluster as ``fuzz_eval`` work items, one per non-empty
:func:`repro.pool.ranges` slice, and restores submission order
(:func:`repro.pool.merge`) before the corpus sees anything.

Determinism contract: the corpus trajectory is a pure function of
``(seeds, seed, iterations)`` exactly as in-process, because the only
thing that changed is *where* the pure evaluations ran.  The engine
has no local pool here, so its batch fold minimizes each admitted input
with the same :func:`repro.fuzz.engine._minimize` the local pool maps
over its workers, called in a loop on the coordinator's own evaluator;
the lockstep oracle also runs there.  Both are deterministic, so
identical to node-side evaluation, and free of per-input network round
trips.  ``FuzzResult.jobs`` stays 1 so the result envelope matches a
``jobs=1`` single-process run.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..fuzz.engine import FuzzConfig, FuzzEngine
from ..fuzz.executor import EvalResult
from ..isa.decoder import IsaConfig

__all__ = ["DistributedFuzzEngine"]

#: Evaluates one list of word-lists remotely, preserving order.
BatchEvaluator = Callable[[List[Tuple[int, ...]]], List[EvalResult]]


class DistributedFuzzEngine(FuzzEngine):
    """A fuzz engine whose batch evaluations run on cluster nodes."""

    def __init__(self, isa: IsaConfig, config: FuzzConfig,
                 evaluate_remote: BatchEvaluator,
                 telemetry=None) -> None:
        super().__init__(isa, config, telemetry=telemetry)
        self._evaluate_remote = evaluate_remote

    def _start_workers(self) -> None:
        # The cluster is the pool.  ``_jobs`` stays 1 so the result
        # envelope (``FuzzResult.jobs``) is byte-identical to the
        # single-process ``jobs=1`` reference run.
        self._jobs = 1
        self._pool = None

    def _evaluate_batch(self, batch: List[Tuple[int, ...]]
                        ) -> List[EvalResult]:
        if len(batch) <= 1:
            # A 1-input batch runs locally — deterministic, so identical
            # to a node-side run, without a network round trip.
            return super()._evaluate_batch(batch)
        results = self._evaluate_remote(list(batch))
        if len(results) != len(batch):
            raise RuntimeError(
                f"remote batch returned {len(results)} results for "
                f"{len(batch)} inputs")
        self.executions += len(batch)
        return results
