"""Bounded multi-priority admission queue with explicit load shedding.

The serving runtime's backpressure lives here: :class:`JobQueue` holds
at most ``capacity`` pending jobs across three priority classes
(:data:`~repro.serve.protocol.PRIORITIES`).  Admission is all-or-nothing
and *explicit* — a saturated queue rejects the offer with a machine-
readable shed reason instead of blocking the client or growing without
bound, mirroring how the Pragma control loop prefers a cheap, visible
refusal over silent overload.  Shed decisions are counted through
:mod:`repro.obs` (``serve.shed{reason=...}``) by the server.

Within a priority class the queue is FIFO by submission sequence;
``take_batch`` additionally coalesces *compatible* pending jobs (same
priority class and same shared-input ``requires``) into one worker
dispatch so a batch warms its shared inputs once.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.serve.protocol import PRIORITIES

__all__ = [
    "SHED_QUEUE_FULL",
    "SHED_SHUTTING_DOWN",
    "SHED_UNKNOWN_SCENARIO",
    "ShedError",
    "JobCancelled",
    "JobFailed",
    "Job",
    "JobQueue",
]

#: shed reasons — the vocabulary of explicit admission refusals
SHED_QUEUE_FULL = "queue-full"
SHED_SHUTTING_DOWN = "shutting-down"
SHED_UNKNOWN_SCENARIO = "unknown-scenario"

#: terminal job statuses (no further transitions)
TERMINAL_STATUSES = frozenset({"done", "failed", "shed", "cancelled", "timeout"})


class ShedError(RuntimeError):
    """Raised when a handle's result is read off a shed request."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"request shed: {reason}")
        self.reason = reason


class JobCancelled(RuntimeError):
    """Raised when a handle's result is read off a cancelled request."""


class JobFailed(RuntimeError):
    """Raised when a handle's result is read off a failed/timed-out job."""


@dataclass
class Job:
    """One admitted unit of work: a scenario execution with an identity.

    ``key`` is the scenario's content-address (the sweep cache key), so
    two jobs with equal keys are the *same* computation — the scheduler
    coalesces them onto one execution.  The job carries its own result
    latch (``done``), terminal ``status``, the event log streamed to
    clients, and a ``committed`` flag that makes result commitment
    exactly-once even when a dying worker races its own retry.
    """

    name: str
    params: dict[str, Any]
    priority: str = "normal"
    seq: int = 0
    key: str = ""
    seed: int = 0
    timeout_s: float | None = None
    max_retries: int = 2
    requires: tuple[str, ...] = ()

    status: str = "queued"
    result: Any = None
    error: str | None = None
    cached: bool = False
    attempts: int = 0
    retries: int = 0
    committed: bool = False
    cancel_requested: bool = False
    subscribers: int = 1
    #: (kind, t_wall_s, attrs) transitions, streamed to clients
    events: list[tuple[str, float, dict[str, Any]]] = field(default_factory=list)
    #: wall-clock submit/start/finish marks for latency accounting
    submitted_t: float = 0.0
    started_t: float | None = None
    finished_t: float | None = None

    done: threading.Event = field(default_factory=threading.Event)
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def terminal(self) -> bool:
        """True once the job reached a terminal status."""
        return self.status in TERMINAL_STATUSES

    @property
    def batch_class(self) -> tuple[str, tuple[str, ...]]:
        """Jobs sharing this class may ride one worker dispatch."""
        return (self.priority, self.requires)

    @property
    def wait_s(self) -> float | None:
        """Seconds from submission to terminal state (None while open)."""
        if self.finished_t is None:
            return None
        return self.finished_t - self.submitted_t

    def to_dict(self) -> dict[str, Any]:
        """The job as a JSON-ready record (the protocol's result shape)."""
        return {
            "job": f"job-{self.seq}",
            "scenario": self.name,
            "params": self.params,
            "priority": self.priority,
            "key": self.key,
            "status": self.status,
            "cached": self.cached,
            "attempts": self.attempts,
            "retries": self.retries,
            "error": self.error,
            "result": self.result,
            "wait_s": self.wait_s,
        }


class JobQueue:
    """Bounded, priority-classed admission queue (thread-safe).

    ``offer`` either admits a job or returns a shed reason; ``take`` /
    ``take_batch`` block until work or queue closure.  ``capacity``
    bounds *pending* jobs only — running jobs have already left the
    queue, so the bound is pure admission backpressure.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lanes: dict[str, deque[Job]] = {p: deque() for p in PRIORITIES}
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return sum(len(lane) for lane in self._lanes.values())

    def offer(self, job: Job) -> str | None:
        """Admit ``job`` or return the shed reason (``None`` = admitted).

        Saturation sheds the *offered* job regardless of priority — the
        bound is a hard promise to the jobs already admitted; priority
        governs drain order, not eviction.
        """
        with self._not_empty:
            if self._closed:
                return SHED_SHUTTING_DOWN
            if sum(len(lane) for lane in self._lanes.values()) >= self.capacity:
                return SHED_QUEUE_FULL
            self._lanes[job.priority].append(job)
            self._not_empty.notify()
            return None

    def _pop_locked(self) -> Job | None:
        for priority in PRIORITIES:
            lane = self._lanes[priority]
            if lane:
                return lane.popleft()
        return None

    def take(self, timeout: float | None = None) -> Job | None:
        """Block for the next job; ``None`` when closed and drained."""
        with self._not_empty:
            while True:
                job = self._pop_locked()
                if job is not None:
                    return job
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None

    def take_batch(
        self, max_batch: int = 1, timeout: float | None = None
    ) -> list[Job]:
        """Block for one job, then greedily add compatible pending jobs.

        Compatibility is :attr:`Job.batch_class` equality — same
        priority class and same shared-input requirements — so one
        dispatch warms its inputs once and never mixes priorities.
        Returns ``[]`` when the queue closed (workers should exit).
        """
        first = self.take(timeout)
        if first is None:
            return []
        batch = [first]
        if max_batch <= 1:
            return batch
        with self._lock:
            lane = self._lanes[first.priority]
            keep: deque[Job] = deque()
            while lane and len(batch) < max_batch:
                job = lane.popleft()
                if job.batch_class == first.batch_class:
                    batch.append(job)
                else:
                    keep.append(job)
            while keep:
                lane.appendleft(keep.pop())
        return batch

    def remove(self, job: Job) -> bool:
        """Withdraw a still-pending job (cancellation); True on success."""
        with self._lock:
            lane = self._lanes[job.priority]
            try:
                lane.remove(job)
                return True
            except ValueError:
                return False

    def depth_by_priority(self) -> dict[str, int]:
        """Pending jobs per priority class."""
        with self._lock:
            return {p: len(lane) for p, lane in self._lanes.items()}

    def close(self) -> None:
        """Stop admitting; wake blocked takers once the queue drains."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()
