"""Pragma-as-a-service: the long-running scenario-serving runtime.

The batch-shaped sweep engine (:mod:`repro.sweep`) runs one scenario set
and exits; this package turns the same execution machinery into an
always-on, multi-tenant service in the spirit of the paper's runtime
control loop — accept work continuously, adapt under load, refuse
visibly rather than degrade silently:

- :mod:`~repro.serve.queue` — bounded admission with priority classes
  and explicit load shedding (reject-with-reason, counted in ``obs``),
- :mod:`~repro.serve.scheduler` — a persistent worker pool with batch
  dispatch, per-job timeouts, cancellation, and retry-on-worker-death
  on the resilience layer's backoff ladder, committing each job's
  outcome exactly once,
- :mod:`~repro.serve.server` — :class:`ScenarioServer` (content-address
  request coalescing on the sweep cache key, result-cache reuse,
  streaming progress through the ``obs`` timeline) and the client's
  per-request :class:`JobHandle`,
- :mod:`~repro.serve.protocol` / :mod:`~repro.serve.jsonl` — the JSONL
  wire protocol and its two transports (request streams for
  ``python -m repro serve``, and a local socket).
"""

from repro.serve.protocol import PRIORITIES, ProtocolError
from repro.serve.queue import (
    Job,
    JobCancelled,
    JobFailed,
    JobQueue,
    ShedError,
)
from repro.serve.scheduler import Scheduler, WorkerDeath
from repro.serve.server import JobHandle, ScenarioServer

__all__ = [
    "PRIORITIES",
    "ProtocolError",
    "Job",
    "JobCancelled",
    "JobFailed",
    "JobQueue",
    "ShedError",
    "Scheduler",
    "WorkerDeath",
    "JobHandle",
    "ScenarioServer",
]
