"""Deterministic shard planning and order-restoring result merge.

The cluster's trust story rests on one rule: **shard planning is a pure
function of the job spec, never of the cluster shape**.  A campaign
submitted with ``shards=4`` produces the same four work items whether
one node or ten are attached, whether a node dies mid-run or not — so
the merged result is byte-identical to a single-process run of the same
spec (pinned by ``tests/cluster/test_parity.py``).

* :func:`plan_shards` maps a :class:`~repro.serve.jobs.JobSpec` to its
  work items.  Fault campaigns split into ``fault_campaign_shard``
  items over contiguous fault-index ranges and verify campaigns into
  ``verify_shard`` items over contiguous program ranges (both via
  :func:`repro.pool.shard_bounds`); everything else (and
  ``shards=1``) is a single passthrough item.  Fuzz jobs are
  *dynamically* sharded per batch by the coordinator's fuzz driver and
  deliberately return a plan marker here.
* :func:`merge_job_shards` restores submission order (shard index, via
  :func:`repro.pool.merge`) and rebuilds the exact single-process result
  envelope via the same shared builders the passthrough executors use
  (:func:`~repro.serve.executors.campaign_result_dict`,
  :func:`~repro.verify.verify_report_dict`).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..pool import merge
from ..serve.jobs import JobSpec

__all__ = [
    "FUZZ_DRIVER",
    "SHARDABLE_KINDS",
    "merge_campaign_shards",
    "merge_job_shards",
    "merge_verify_shards",
    "plan_shards",
    "shard_count_for",
]

#: Kinds the coordinator may split when ``spec.shards > 1``.
SHARDABLE_KINDS = ("fault_campaign", "fuzz", "verify")

#: Statically sharded kind -> its per-shard work-item kind.
_SHARD_KINDS = {"fault_campaign": "fault_campaign_shard",
                "verify": "verify_shard"}

#: Plan marker: the job is driven by the coordinator's fuzz loop, which
#: shards each evaluation batch dynamically (no static work items).
FUZZ_DRIVER = "fuzz_driver"


def shard_count_for(spec: JobSpec) -> int:
    """The effective shard count — spec-pure, capped at the work size."""
    if spec.shards <= 1 or spec.kind not in SHARDABLE_KINDS:
        return 1
    if spec.kind == "fault_campaign":
        mutants = spec.payload.get("mutants", 100)
        if isinstance(mutants, int) and not isinstance(mutants, bool):
            return max(1, min(spec.shards, mutants))
    if spec.kind == "verify":
        from ..verify import corpus_size_hint

        corpus = spec.payload.get("corpus", "suites")
        try:
            hint = corpus_size_hint(corpus) if isinstance(corpus, str) \
                else None
        except ValueError:
            hint = None  # bad spec surfaces as ExecutorError at execution
        if hint is not None:
            return max(1, min(spec.shards, hint))
    return spec.shards


def plan_shards(spec: JobSpec) -> List[Dict[str, Any]]:
    """The work items for one job — each ``{"kind", "payload",
    "shard_index", "shard_count"}``.

    A fuzz job with ``shards > 1`` returns the single :data:`FUZZ_DRIVER`
    marker instead: its real work items are minted batch-by-batch by the
    coordinator's :class:`~repro.cluster.fuzzdriver.DistributedFuzzEngine`.
    """
    count = shard_count_for(spec)
    if spec.kind == "fuzz" and count > 1:
        return [{"kind": FUZZ_DRIVER, "payload": spec.payload,
                 "shard_index": 0, "shard_count": count}]
    if count == 1:
        return [{"kind": spec.kind, "payload": spec.payload,
                 "shard_index": 0, "shard_count": 1}]
    return [
        {"kind": _SHARD_KINDS[spec.kind],
         "payload": {**spec.payload,
                     "shard_count": count, "shard_index": index},
         "shard_index": index,
         "shard_count": count}
        for index in range(count)
    ]


def merge_campaign_shards(shard_results: List[Dict[str, Any]]
                          ) -> Dict[str, Any]:
    """Rebuild the single-process campaign envelope from shard results.

    Each element is one ``fault_campaign_shard`` executor return value.
    Results are concatenated in shard-index order — the shard executor
    ran ``faults[lo:hi]`` of the *same* seeded fault list every shard
    rebuilt, so index-ordered concatenation reproduces the exact
    sequential classification list.  The elapsed time is the summed
    shard compute time (wall-clock, stripped by parity comparisons).
    """
    from ..serve.executors import campaign_result_dict

    count = shard_results[0]["shard_count"] if shard_results else 0
    ordered = merge([(s["shard_index"], s) for s in shard_results], count)
    results: List[Dict[str, Any]] = []
    for shard in ordered:
        results.extend(shard["results"])
    golden = ordered[0]["golden"]
    elapsed = round(sum(s["elapsed_seconds"] for s in ordered), 6)
    campaign_dict = {"golden": golden, "results": results,
                     "elapsed_seconds": elapsed}
    return campaign_result_dict(golden, campaign_dict)


def merge_verify_shards(shard_results: List[Dict[str, Any]]
                        ) -> Dict[str, Any]:
    """Rebuild the single-process verify report from shard results.

    Each element is one ``verify_shard`` executor return value.  Every
    shard rebuilt the identical seeded corpus and matrix (the ``meta``
    dicts agree, including the corpus digest), so concatenating the
    escalation lists in shard-index order — contiguous program ranges —
    and re-running the shared report builder reproduces the exact
    single-process report.  Elapsed time is the summed shard compute
    time (wall-clock, stripped by parity comparisons).
    """
    from ..verify import verify_report_dict

    count = shard_results[0]["shard_count"] if shard_results else 0
    ordered = merge([(s["shard_index"], s) for s in shard_results], count)
    meta = ordered[0]["meta"]
    for shard in ordered[1:]:
        if shard["meta"] != meta:
            raise ValueError(
                f"verify shard {shard['shard_index']} disagrees on the "
                f"campaign meta (corpus digest "
                f"{shard['meta'].get('corpus_digest')} vs "
                f"{meta.get('corpus_digest')})")
    escalations: List[Dict[str, Any]] = []
    for shard in ordered:
        escalations.extend(shard["escalations"])
    elapsed = round(sum(s["elapsed_seconds"] for s in ordered), 6)
    return verify_report_dict(meta, escalations, elapsed)


def merge_job_shards(kind: str,
                     shard_results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge shard results for a job of ``kind`` (the coordinator's
    single dispatch point for every statically sharded kind)."""
    if kind == "fault_campaign":
        return merge_campaign_shards(shard_results)
    if kind == "verify":
        return merge_verify_shards(shard_results)
    raise ValueError(f"job kind {kind!r} has no shard merge")

