"""Distributed simulation fabric over the batch-service layer.

A coordinator (:class:`ClusterCoordinator`) owns the job queue and the
client API; worker nodes (:class:`WorkerNode`) attach over the same
stdlib HTTP/JSON protocol ``repro serve`` speaks, pull sharded work,
execute it with the stock executor registry, and stream results back
under heartbeat-renewed leases.  The design invariant — shard planning
is a pure function of the job spec, with an order-restoring merge on
the coordinator — makes an N-node run byte-identical to single-process
execution for any fixed seed, including across node death and lease
re-dispatch.  See docs/serving.md ("Cluster mode").
"""

from .client import CoordinatorClient
from .coordinator import ClusterCoordinator
from .fuzzdriver import DistributedFuzzEngine
from .leases import LeaseTable, NodeInfo, NodeRegistry, WorkItem
from .node import WorkerNode
from .quotas import QuotaExceeded, TenantQuotas
from .shards import merge_campaign_shards, plan_shards, shard_count_for
from .store import JobStore

__all__ = [
    "ClusterCoordinator",
    "CoordinatorClient",
    "DistributedFuzzEngine",
    "JobStore",
    "LeaseTable",
    "NodeInfo",
    "NodeRegistry",
    "QuotaExceeded",
    "TenantQuotas",
    "WorkItem",
    "WorkerNode",
    "merge_campaign_shards",
    "plan_shards",
    "shard_count_for",
]
