"""Admission-controlled bounded priority queue with backpressure.

The queue is the service's **admission controller**: a hard capacity
bound is enforced at :meth:`AdmissionQueue.put` time, and a full queue
raises :class:`QueueFull` immediately instead of blocking — the HTTP
layer maps that to a 429 response so clients back off.  Ordering is

1. **priority** (larger first),
2. **deadline** (earlier first; no deadline sorts last),
3. **submission order** (FIFO tiebreak).

so a late-arriving urgent job overtakes queued bulk work.  The queue is
thread-safe; consumers block in :meth:`get` until a job, a timeout, or
:meth:`close`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from typing import List, Optional, Tuple

from .jobs import Job

__all__ = ["AdmissionQueue", "QueueClosed", "QueueFull"]


class QueueFull(Exception):
    """Admission rejected: the queue is at capacity (HTTP 429)."""

    #: Seconds the 429 reply's ``Retry-After`` header asks clients to wait.
    retry_after = 1

    def __init__(self, limit: int) -> None:
        super().__init__(f"queue full ({limit} jobs queued); retry later")
        self.limit = limit


class QueueClosed(Exception):
    """The queue no longer accepts work (service shutting down)."""


class AdmissionQueue:
    """A bounded, closable priority queue of :class:`Job` objects."""

    def __init__(self, limit: int = 64) -> None:
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self._heap: List[Tuple[Tuple[int, float, int], Job]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def _key(self, job: Job) -> Tuple[int, float, int]:
        deadline = job.deadline_at
        return (-job.spec.priority,
                deadline if deadline is not None else math.inf,
                next(self._seq))

    def put(self, job: Job) -> None:
        """Admit ``job`` or raise :class:`QueueFull` / :class:`QueueClosed`.

        Never blocks: backpressure is the caller's problem by design.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("queue is closed")
            if len(self._heap) >= self.limit:
                raise QueueFull(self.limit)
            heapq.heappush(self._heap, (self._key(job), job))
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the best job; ``None`` on timeout or when closed and empty.

        Jobs that resolved while queued (cancelled via the API) are
        skipped and never returned.
        """
        with self._not_empty:
            while True:
                while self._heap:
                    _, job = heapq.heappop(self._heap)
                    if not job.done:
                        return job
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None

    def depth(self) -> int:
        """Number of queued jobs still waiting to run."""
        with self._lock:
            return sum(1 for _, job in self._heap if not job.done)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop admitting; wake every blocked consumer."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def drain(self) -> List[Job]:
        """Remove and return every queued job (used by non-drain shutdown)."""
        with self._lock:
            jobs = [job for _, job in self._heap if not job.done]
            self._heap.clear()
            return jobs

    def __len__(self) -> int:
        return self.depth()
