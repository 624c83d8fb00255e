"""Per-tenant admission quotas, layered on the 429 backpressure.

The admission queue bounds *total* in-flight work; quotas bound each
tenant's share so one noisy tenant cannot monopolize the cluster.  A
tenant's budget counts **active** jobs — queued plus running — and is
released when the job resolves.  Exceeding the budget raises
:class:`QuotaExceeded`, a :class:`~repro.serve.queue.QueueFull` that
the shared route table maps to the same ``429 + Retry-After`` contract
as a full queue (with a 2 s hint), so existing client backoff handles
both identically.  Jobs without a ``tenant`` label are exempt (quotas
are opt-in per submission).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from ..serve.queue import QueueFull

__all__ = ["QuotaExceeded", "TenantQuotas"]


class QuotaExceeded(QueueFull):
    """A tenant is at its active-job limit (HTTP 429)."""

    retry_after = 2

    def __init__(self, tenant: str, limit: int) -> None:
        Exception.__init__(self, f"tenant {tenant!r} is at its quota "
                           f"({limit} active jobs); retry later")
        self.tenant = tenant
        self.limit = limit


class TenantQuotas:
    """Active-job accounting per tenant.

    ``default_limit`` applies to every tenant without an explicit entry
    in ``limits``; ``None`` means unlimited (accounting still runs, so
    per-tenant gauges stay accurate).
    """

    def __init__(self, default_limit: Optional[int] = None,
                 limits: Optional[Dict[str, int]] = None) -> None:
        if default_limit is not None and default_limit < 1:
            raise ValueError("default_limit must be >= 1 when given")
        for tenant, limit in (limits or {}).items():
            if limit < 1:
                raise ValueError(f"quota for {tenant!r} must be >= 1")
        self.default_limit = default_limit
        self.limits = dict(limits or {})
        self._active: Dict[str, int] = {}
        self._lock = threading.Lock()

    def limit_for(self, tenant: str) -> Optional[int]:
        return self.limits.get(tenant, self.default_limit)

    def acquire(self, tenant: Optional[str], force: bool = False) -> None:
        """Count one more active job or raise :class:`QuotaExceeded`.

        ``force`` admits over the limit but still counts — used when the
        coordinator replays persisted jobs, which must never strand.
        """
        if tenant is None:
            return
        with self._lock:
            active = self._active.get(tenant, 0)
            limit = self.limit_for(tenant)
            if not force and limit is not None and active >= limit:
                raise QuotaExceeded(tenant, limit)
            self._active[tenant] = active + 1

    def release(self, tenant: Optional[str]) -> None:
        if tenant is None:
            return
        with self._lock:
            active = self._active.get(tenant, 0)
            if active <= 1:
                self._active.pop(tenant, None)
            else:
                self._active[tenant] = active - 1

    def active(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._active)
