"""Batch simulation service: job queue, scheduler, worker pool, HTTP API.

The service turns every one-shot workload in the reproduction — VP runs,
fault-injection campaigns, coverage collection, QTA/WCET analyses — into
a submittable **job** executed by a long-lived process:

* :mod:`repro.serve.jobs` — the job model: specs, states, priorities,
  deadlines, retry/timeout policy,
* :mod:`repro.serve.queue` — an admission-controlled bounded priority
  queue with backpressure (:class:`QueueFull` maps to HTTP 429),
* :mod:`repro.serve.executors` — the job-kind registry mapping JSON
  payloads onto the existing library entry points,
* :mod:`repro.serve.service` — the scheduler + persistent worker pool
  (threads by default, :mod:`repro.pool` worker processes on request),
* :mod:`repro.serve.http` — the one HTTP transport, a selector event
  loop the service and the cluster coordinator both answer on,
* :mod:`repro.serve.api` — the ``/v1/*`` route table and foreground
  lifecycle both front doors share, and ``ServiceServer``
  (``python -m repro serve``),
* :mod:`repro.serve.client` — a thin :mod:`urllib`-based client used by
  ``python -m repro submit``.

A job executed through the service produces results identical to the
direct library call (byte-identical ``CampaignResult.to_json()`` for
fault campaigns).  Telemetry flows through the shared
:mod:`repro.telemetry` registry under the ``serve.*`` namespace, so
``repro serve --stats`` / ``--events-out`` / ``--trace-out`` work exactly
like the one-shot commands.
"""

from .executors import ExecutorError, execute_job, job_kinds, register_executor
from .jobs import (
    FINAL_STATES,
    Job,
    JobCancelled,
    JobContext,
    JobSpec,
    JobTimeout,
    STATES,
    STATE_CANCELLED,
    STATE_FAILED,
    STATE_PENDING,
    STATE_RUNNING,
    STATE_SUCCEEDED,
    STATE_TIMEOUT,
)
from .queue import AdmissionQueue, QueueClosed, QueueFull
from .service import BatchService, ServiceClosed

__all__ = [
    "AdmissionQueue",
    "BatchService",
    "ExecutorError",
    "FINAL_STATES",
    "Job",
    "JobCancelled",
    "JobContext",
    "JobSpec",
    "JobTimeout",
    "QueueClosed",
    "QueueFull",
    "STATES",
    "STATE_CANCELLED",
    "STATE_FAILED",
    "STATE_PENDING",
    "STATE_RUNNING",
    "STATE_SUCCEEDED",
    "STATE_TIMEOUT",
    "ServiceClosed",
    "execute_job",
    "job_kinds",
    "register_executor",
]
