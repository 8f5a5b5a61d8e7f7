"""The long-running scenario server and its client API.

:class:`ScenarioServer` layers the serving runtime on the sweep engine:
requests name a registered :class:`~repro.sweep.scenario.Scenario`
(optionally with parameter overrides), are admitted through the bounded
:class:`~repro.serve.queue.JobQueue` (or shed with an explicit reason),
coalesced by content-address onto one execution when identical requests
are already pending (the sweep cache key *is* the dedup key), batched
per worker dispatch, and executed by the
:class:`~repro.serve.scheduler.Scheduler`'s persistent pool with
timeouts, cancellation and retry-on-worker-death.  Completed results are
written to a result cache (in-memory by default, the on-disk sweep
:class:`~repro.sweep.cache.ResultCache` when ``cache_dir`` is given), so
repeat requests are served without re-execution.

Clients hold a :class:`JobHandle`: ``result()`` blocks for the outcome
(raising :class:`~repro.serve.queue.ShedError` /
:class:`~repro.serve.queue.JobCancelled` /
:class:`~repro.serve.queue.JobFailed` as appropriate), ``cancel()``
withdraws a pending request, ``record()`` snapshots the job document.
The server itself is the surface exported through :mod:`repro.api`:
``submit`` / ``submit_many`` / ``drain`` / ``stats`` / ``health`` /
``shutdown``, and a context manager that shuts down on exit.

Progress is streamed two ways: per-job event logs and push listeners
(the JSONL transports in :mod:`repro.serve.jsonl` subscribe one to
stream events to clients).  Every event also lands in the server's
flight recorder, and every admission and served latency in its SLO
tracker (:mod:`repro.obs.live`).  Counters (``serve.submitted`` /
``serve.shed{reason}`` / ``serve.dedup_hits`` / ...) and latency
histograms go to the server's own registry,
:attr:`ScenarioServer.metrics`, and nowhere else.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.agents.message_center import DeliveryPolicy
from repro.obs.live import (
    FlightRecorder,
    HealthStatus,
    SloTracker,
    SnapshotExporter,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import PRIORITIES
from repro.serve.queue import (
    SHED_QUEUE_FULL,
    SHED_SHUTTING_DOWN,
    SHED_UNKNOWN_SCENARIO,
    Job,
    JobCancelled,
    JobFailed,
    JobQueue,
    ShedError,
)
from repro.serve.scheduler import Scheduler
from repro.sweep.cache import ResultCache, cache_record
from repro.sweep.runner import DEFAULT_SCENARIO_MODULES
from repro.sweep.scenario import (
    execute_scenario,
    get_scenario,
    import_scenario_modules,
    run_identity,
    warm_requirement,
)

__all__ = ["JobHandle", "ScenarioServer"]


class _MemoryCache:
    """Dict-backed stand-in for :class:`ResultCache` (default, no disk)."""

    def __init__(self) -> None:
        self._docs: dict[str, dict[str, Any]] = {}
        self.directory = None

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached document for ``key``, or ``None`` on a miss."""
        return self._docs.get(key)

    def put(self, key: str, document: dict[str, Any]) -> None:
        """Store ``document`` under ``key``."""
        self._docs[key] = document

    def __len__(self) -> int:
        return len(self._docs)


class JobHandle:
    """A client's view of one submitted request.

    Multiple handles may share one underlying job (request coalescing);
    cancelling a shared handle only detaches this client.
    """

    def __init__(self, job: Job, server: "ScenarioServer") -> None:
        self._job = job
        self._server = server
        self._detached = False
        self._cancelling = False

    @property
    def job_id(self) -> str:
        """Server-assigned job identifier (``job-<seq>``)."""
        return f"job-{self._job.seq}"

    @property
    def key(self) -> str:
        """The job's content-address (the sweep cache key)."""
        return self._job.key

    @property
    def status(self) -> str:
        """Current job status (``cancelled`` for a detached handle)."""
        if self._detached:
            return "cancelled"
        return self._job.status

    @property
    def done(self) -> bool:
        """True once the job (or this handle's detachment) is terminal."""
        return self._detached or self._job.terminal

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal; True when the job finished in time."""
        if self._detached:
            return True
        return self._job.done.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """The job's result, blocking up to ``timeout`` seconds.

        Raises :class:`ShedError` for shed requests,
        :class:`JobCancelled` for cancelled ones, :class:`JobFailed` for
        failures and timeouts, and :class:`TimeoutError` when the wait
        itself expires.
        """
        if self._detached:
            raise JobCancelled(f"{self.job_id} cancelled by this client")
        if not self._job.done.wait(timeout):
            raise TimeoutError(
                f"{self.job_id} still {self._job.status!r} after {timeout}s"
            )
        job = self._job
        if job.status == "done":
            return job.result
        if job.status == "shed":
            raise ShedError(job.error or "shed")
        if job.status == "cancelled":
            raise JobCancelled(f"{self.job_id} was cancelled")
        raise JobFailed(f"{self.job_id} {job.status}: {job.error}")

    def cancel(self) -> bool:
        """Withdraw this request; True when anything was cancelled.

        A pending sole-subscriber job is removed from the queue and
        terminalized; a running one gets a cooperative cancel flag (its
        result is discarded if the flag wins the commit race).  When
        other clients share the job, only this handle detaches.

        Safe to call from multiple threads: the handle represents one
        subscriber slot, so exactly one concurrent ``cancel()`` may
        reach the server's decrement — the claim below is taken under
        the job lock before any blocking work.  (The simulation harness
        found the unguarded version double-decrementing the subscriber
        count when a second cancel slipped in between the first one's
        decrement and its ``_detached`` update.)
        """
        with self._job.lock:
            if self._detached or self._cancelling or self._job.committed:
                return False
            self._cancelling = True
        ok = self._server._cancel(self._job)
        with self._job.lock:
            self._cancelling = False
            if ok:
                self._detached = True
        return ok

    def events(self) -> list[dict[str, Any]]:
        """The job's event log as JSON-ready records."""
        return [
            {"kind": kind, "t": t, **attrs}
            for kind, t, attrs in list(self._job.events)
        ]

    def record(self) -> dict[str, Any]:
        """Snapshot of the job document (the protocol's result shape)."""
        doc = self._job.to_dict()
        if self._detached:
            doc["status"] = "cancelled"
        return doc


class ScenarioServer:
    """The concurrent scenario-serving runtime.

    ``workers`` threads drain a ``queue_capacity``-bounded priority
    queue in batches of up to ``max_batch`` compatible jobs.  With
    ``start=False`` the pool stays parked until :meth:`start` — the
    deterministic mode tests and benchmarks use to fill the queue before
    any draining happens.

    The live telemetry plane is always on: a flight recorder of the
    last serve events and an SLO tracker per priority lane.  Its
    deployment settings are paths: ``snapshot_path`` starts a
    :class:`~repro.obs.live.SnapshotExporter` appending one JSONL
    metrics snapshot every ``snapshot_interval_s`` seconds, and
    ``flight_dump_path`` is where the flight recorder dumps on shutdown.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_capacity: int = 64,
        max_batch: int = 4,
        base_seed: int = 0,
        cache_dir: str | None = None,
        use_cache: bool = True,
        retry_policy: DeliveryPolicy | None = None,
        max_retries: int = 2,
        default_timeout_s: float | None = None,
        scenario_modules: Sequence[str] = DEFAULT_SCENARIO_MODULES,
        death_injector: Callable[[Job, int], str | None] | None = None,
        snapshot_path: str | None = None,
        snapshot_interval_s: float = 5.0,
        flight_dump_path: str | None = None,
        clock: Callable[[], float] | None = None,
        sleeper: Callable[[float], None] | None = None,
        start: bool = True,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        import_scenario_modules(scenario_modules)
        #: the server's one time source.  Every timestamp the runtime
        #: takes — submit/start/finish marks, event times, uptime, drain
        #: deadlines, commit-age health checks, the snapshot exporter —
        #: reads this single injected clock, so a virtual clock
        #: (:mod:`repro.simtest`) governs all windows at once.  The
        #: default is real monotonic time; production behavior is
        #: unchanged.
        self.clock = clock if clock is not None else time.monotonic
        self.sleeper = sleeper if sleeper is not None else time.sleep
        self.base_seed = base_seed
        #: shared inputs (traces) live under ``cache_dir``, results under
        #: ``cache_dir/serve``; without one, results stay in memory
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.use_cache = use_cache
        self.max_retries = max_retries
        self.default_timeout_s = default_timeout_s
        self.cache = (
            ResultCache(self.cache_dir / "serve")
            if self.cache_dir is not None else _MemoryCache()
        )
        #: the server's own always-on registry — the one sink for
        #: ``serve.*`` metrics and the source behind :meth:`stats`, the
        #: ``metrics`` exposition endpoint and the live dashboard
        self.metrics = MetricsRegistry()
        #: dump headers and snapshot timestamps read the injected clock
        #: too, so a simulated run's telemetry carries virtual time
        wall_clock = self.clock if clock is not None else None
        self.flight_dump_path = flight_dump_path
        self._flight = FlightRecorder(wall_clock=wall_clock)
        self._slo = SloTracker()
        self.queue = JobQueue(queue_capacity)
        self.scheduler = Scheduler(
            self.queue,
            self._execute_job,
            workers=workers,
            max_batch=max_batch,
            retry_policy=retry_policy,
            on_terminal=self._on_terminal,
            warm_requirement=self._warm,
            death_injector=death_injector,
            on_event=self._notify,
            metrics=self.metrics,
            clock=self.clock,
            sleep=self.sleeper,
        )
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight: dict[str, Job] = {}
        self._listeners: list[Callable[[Job, str, float, dict], None]] = []
        self._seq = 0
        self._closed = False
        self._epoch = self.clock()
        self._last_commit_t: float | None = None
        self._exporter: SnapshotExporter | None = None
        if snapshot_path is not None:
            self._exporter = SnapshotExporter(
                self.metrics,
                snapshot_path,
                interval_s=snapshot_interval_s,
                extra=lambda: {"stats": self.stats()},
                clock=self.clock,
                wall_clock=wall_clock,
            )
            self._exporter.start()
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        self.scheduler.start()

    @property
    def running(self) -> bool:
        """True while the worker pool is up and admission is open."""
        return self.scheduler.started and not self._closed

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no job is pending or running; True when idle."""
        deadline = None if timeout is None else self.clock() + timeout
        with self._idle:
            while self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - self.clock()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def shutdown(self, wait: bool = True) -> None:
        """Stop admission, drain the queue and join the workers.

        The live plane winds down with the server: the snapshot exporter
        flushes a final record and the flight recorder dumps to its
        configured path (when one is set).
        """
        with self._lock:
            self._closed = True
        self.scheduler.stop(wait=wait)
        if self._exporter is not None:
            self._exporter.stop()
            self._exporter = None
        self.dump_flight()

    def __enter__(self) -> "ScenarioServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- submission --------------------------------------------------------------

    def _notify(self, job: Job, kind: str, t: float, attrs: dict) -> None:
        # every job event funnels through here — both the server's own
        # _emit and the scheduler's _event — so this is the one flight
        # recorder tap point; event attrs win over the job-derived
        # fields (e.g. the "queued" event already carries priority)
        self._flight.record(kind, t, **{
            "job": f"job-{job.seq}", "scenario": job.name,
            "priority": job.priority, **attrs,
        })
        for listener in list(self._listeners):
            try:
                listener(job, kind, t, attrs)
            except Exception:  # noqa: BLE001 - listeners cannot kill workers
                pass

    def add_listener(
        self, listener: Callable[[Job, str, float, dict], None]
    ) -> None:
        """Subscribe a push listener to every job event."""
        self._listeners.append(listener)

    def _emit(self, job: Job, kind: str, **attrs: Any) -> None:
        t = self.clock()
        job.events.append((kind, t, attrs))
        self._notify(job, kind, t, attrs)

    def _make_job(self, name: str, params: dict[str, Any],
                  priority: str) -> Job:
        with self._lock:
            self._seq += 1
            seq = self._seq
        return Job(
            name=name, params=params, priority=priority, seq=seq,
            submitted_t=self.clock(),
        )

    def _shed_job(self, job: Job, reason: str) -> JobHandle:
        job.status = "shed"
        job.error = reason
        job.finished_t = self.clock()
        job.committed = True
        job.done.set()
        self.metrics.counter("serve.shed", reason=reason).inc()
        # unknown-scenario refusals are client errors, not load
        self._slo.record_admission(
            job.priority,
            shed=reason in (SHED_QUEUE_FULL, SHED_SHUTTING_DOWN),
        )
        self._emit(job, "shed", reason=reason)
        return JobHandle(job, self)

    def submit(
        self,
        name: str,
        params: dict[str, Any] | None = None,
        *,
        priority: str = "normal",
        timeout_s: float | None = None,
        max_retries: int | None = None,
    ) -> JobHandle:
        """Submit one scenario request; never blocks, never raises on load.

        Admission control is explicit: a saturated queue, a closed
        server or an unknown scenario name produce a handle whose status
        is ``shed`` (with the machine-readable reason) rather than an
        exception or an unbounded wait.  Identical pending requests —
        same scenario, same merged parameters — coalesce onto one
        execution, and previously computed results are served from the
        result cache without executing anything.

        An unknown ``priority`` is a usage error (not load) and raises
        :class:`ValueError` — mirroring the JSONL protocol layer's
        request validation.
        """
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}; "
                f"expected one of {list(PRIORITIES)}"
            )
        self.metrics.counter("serve.submitted", priority=priority).inc()
        try:
            scenario = get_scenario(name)
        except KeyError:
            job = self._make_job(name, dict(params or {}), priority)
            return self._shed_job(job, SHED_UNKNOWN_SCENARIO)
        merged, seed, key = run_identity(scenario, params, self.base_seed)
        job = self._make_job(name, merged, priority)
        job.key, job.seed = key, seed
        job.timeout_s = timeout_s if timeout_s is not None else self.default_timeout_s
        job.max_retries = (
            max_retries if max_retries is not None else self.max_retries
        )
        job.requires = tuple(scenario.requires)

        if self._closed:
            return self._shed_job(job, SHED_SHUTTING_DOWN)

        if self.use_cache:
            doc = self.cache.get(key)
            if doc is not None:
                job.status = "done"
                job.result = doc["result"]
                job.cached = True
                job.committed = True
                job.finished_t = self.clock()
                job.done.set()
                self.metrics.counter("serve.cache_hits").inc()
                self._slo.record_admission(priority, shed=False)
                self._slo.record_latency(
                    priority, job.finished_t - job.submitted_t
                )
                self._emit(job, "cache-hit")
                return JobHandle(job, self)

        # One locked region covers the twin lookup, the queue offer and
        # the inflight insert, so two racing submits of the same key can
        # never both admit an execution.  The subscriber count is guarded
        # by the job's own lock (like _cancel's decrement), and committed
        # is re-checked under it so we never attach to a job a racing
        # cancel/commit is terminalizing.
        with self._lock:
            twin = self._inflight.get(key)
            if twin is not None and not self._attach_twin(twin):
                twin = None
            if twin is not None:
                reason = None
            else:
                reason = self.queue.offer(job)
                if reason is None:
                    self._inflight[key] = job
        if twin is not None:
            self.metrics.counter("serve.dedup_hits").inc()
            self._slo.record_admission(priority, shed=False)
            self._emit(twin, "dedup-attach", subscribers=twin.subscribers)
            return JobHandle(twin, self)
        if reason is not None:
            return self._shed_job(job, reason)
        self.metrics.counter("serve.admitted", priority=priority).inc()
        self._slo.record_admission(priority, shed=False)
        self._emit(job, "queued", priority=priority)
        return JobHandle(job, self)

    def submit_many(
        self, requests: Sequence[dict[str, Any]]
    ) -> list[JobHandle]:
        """Submit a batch of request documents; returns handles in order."""
        return [
            self.submit(
                req["scenario"],
                req.get("params"),
                priority=req.get("priority", "normal"),
                timeout_s=req.get("timeout_s"),
                max_retries=req.get("max_retries"),
            )
            for req in requests
        ]

    def _attach_twin(self, twin: Job) -> bool:
        """Attach a new subscriber to a pending twin; False if it is gone.

        Runs under :attr:`_lock`.  The subscriber bump is taken under the
        twin's own lock with ``committed`` re-checked inside it, so a
        racing cancel/commit can never hand this client a dead twin —
        the exact race class the simulation harness's regression seeds
        pin down (see ``tests/test_simtest.py``).
        """
        with twin.lock:
            if twin.committed:
                return False
            twin.subscribers += 1
        return True

    # -- cancellation ------------------------------------------------------------

    def _cancel(self, job: Job) -> bool:
        """Detach one subscriber; terminalize the job when it was the last.

        The whole decision — decrement, last-subscriber check, and (for
        a job that has not started running) the ``cancelled`` commit —
        happens under the job's own lock, the same lock
        :meth:`_attach_twin` re-checks ``committed`` under.  Splitting
        the commit from the subscriber check leaves a window where a
        racing same-key submit attaches to the job *after* the decrement
        and then watches it get cancelled out from under it — the
        phantom-cancel race the simulation harness pins down.
        """
        pending_commit = False
        with job.lock:
            if job.committed:
                return False
            job.subscribers -= 1
            sole = job.subscribers <= 0
            if sole:
                job.cancel_requested = True
                if job.status == "queued":
                    # not started (still queued, or taken into a batch
                    # the worker has not dispatched): commit here,
                    # atomically with the subscriber check
                    job.committed = True
                    job.status = "cancelled"
                    job.finished_t = self.clock()
                    pending_commit = True
        if not sole:
            self._emit(job, "detach", subscribers=job.subscribers)
            return True
        if pending_commit:
            # a worker's take_batch may have grabbed the job already;
            # its pre-dispatch check sees ``committed`` and drops it
            self.queue.remove(job)
            self._emit(job, "cancelled", where="pending")
            job.done.set()
            self._on_terminal(job)
            self.metrics.counter("serve.cancelled", where="pending").inc()
            return True
        # already running: the cooperative flag wins or loses the commit
        # race in the scheduler's post-run check
        self._emit(job, "cancel-requested")
        self.metrics.counter("serve.cancel_requested").inc()
        return True

    # -- execution (called from worker threads) ----------------------------------

    def _warm(self, req: str) -> None:
        warm_requirement(req, self.cache_dir)

    def _execute_job(self, job: Job) -> Any:
        return execute_scenario(
            get_scenario(job.name), job.params, job.seed, self.cache_dir
        )

    def _on_terminal(self, job: Job) -> None:
        # cache hits never get here: they commit in submit()
        if job.status == "done" and self.use_cache:
            self.cache.put(job.key, cache_record(
                job.name, job.params, job.seed, job.result
            ))
        self.metrics.counter("serve.jobs_terminal", status=job.status).inc()
        self._last_commit_t = self.clock()
        if job.wait_s is not None:
            self.metrics.histogram("serve.job_wait_seconds").observe(job.wait_s)
        if job.status == "done" and job.finished_t is not None:
            latency = job.finished_t - job.submitted_t
            self.metrics.histogram(
                "serve.request_latency_seconds", priority=job.priority,
            ).observe(latency)
            self._slo.record_latency(job.priority, latency)
        with self._idle:
            self._pop_inflight(job)
            if not self._inflight:
                self._idle.notify_all()

    def _pop_inflight(self, job: Job) -> None:
        """Drop ``job``'s inflight entry; runs under :attr:`_idle`.

        Identity-checked: a racing submit may have re-admitted this key
        after the job went terminal but before this pop ran — popping
        blindly would orphan the new job's dedup/drain entry (another
        race class the simulation harness's regression seeds pin down).
        """
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]

    # -- introspection -----------------------------------------------------------

    def _legacy_counters(self) -> dict[str, int]:
        """The historical ``stats()['counters']`` dict, reconstructed
        from the ``serve.*`` registry (keys appear once nonzero, so an
        untouched server still reports ``{}``)."""
        m = self.metrics
        out: dict[str, int] = {}

        def put(key: str, value: float) -> None:
            if value:
                out[key] = int(value)

        put("submitted", m.sum_counters("serve.submitted"))
        shed_total = 0
        for labels, value in m.counter_items("serve.shed"):
            put(f"shed:{labels.get('reason', '?')}", value)
            shed_total += int(value)
        put("shed", shed_total)
        put("dedup_hits", m.counter_value("serve.dedup_hits"))
        put("admitted", m.sum_counters("serve.admitted"))
        put("cache_hits", m.counter_value("serve.cache_hits"))
        put("cancelled", m.counter_value("serve.cancelled", where="pending"))
        put("cancel_requested", m.counter_value("serve.cancel_requested"))
        # every committed "done" is one execution: hits never commit here
        done = m.counter_value("serve.jobs_terminal", status="done")
        put("executions", done)
        put("completed", done)
        put("failed", m.counter_value("serve.jobs_terminal", status="failed"))
        put("timeout", m.counter_value("serve.jobs_terminal", status="timeout"))
        return dict(sorted(out.items()))

    def stats(self) -> dict[str, Any]:
        """Snapshot of the server's counters and queue state.

        The ``counters`` dict keeps its historical shape (``submitted``,
        ``shed``/``shed:<reason>``, ``dedup_hits``, ...), now derived
        from the ``serve.*`` instruments on :attr:`metrics`.
        """
        with self._lock:
            inflight = len(self._inflight)
        return {
            "counters": self._legacy_counters(),
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "queue_by_priority": self.queue.depth_by_priority(),
            "inflight": inflight,
            "workers": self.scheduler.workers,
            "max_batch": self.scheduler.max_batch,
            "running": self.running,
            "uptime_wall_s": self.clock() - self._epoch,
        }

    @property
    def uptime_seconds(self) -> float:
        """Monotonic seconds since construction."""
        return self.clock() - self._epoch

    def health(self) -> HealthStatus:
        """Liveness + readiness with the individual gate signals.

        ``live`` is unconditionally True — a served response implies the
        process runs.  ``ready`` requires open admission, a started
        worker pool with every worker alive, and queue headroom.
        """
        depth = len(self.queue)
        capacity = self.queue.capacity
        alive = self.scheduler.alive_workers
        last_commit_age = (
            self.clock() - self._last_commit_t
            if self._last_commit_t is not None else None
        )
        checks: dict[str, Any] = {
            "admission_open": not self._closed,
            "scheduler_started": self.scheduler.started,
            "queue_depth": depth,
            "queue_capacity": capacity,
            "queue_has_headroom": depth < capacity,
            "workers": self.scheduler.workers,
            "workers_alive": alive,
            "last_commit_age_s": last_commit_age,
            "uptime_seconds": self.uptime_seconds,
        }
        ready = (
            not self._closed
            and self.scheduler.started
            and alive >= self.scheduler.workers
            and depth < capacity
        )
        return HealthStatus(live=True, ready=ready, checks=checks)

    def scrape_metrics(self) -> str:
        """The ``serve.*`` registry as Prometheus text exposition.

        Point-in-time gauges (queue depth, inflight, uptime) are
        refreshed into the registry before rendering, so a scrape always
        reflects current state, not the last event.
        """
        from repro.obs.live import render_prometheus

        m = self.metrics
        m.gauge("serve.uptime_seconds").set(self.uptime_seconds)
        m.gauge("serve.queue_depth").set(len(self.queue))
        m.gauge("serve.queue_capacity").set(self.queue.capacity)
        with self._lock:
            m.gauge("serve.inflight").set(len(self._inflight))
        m.gauge("serve.workers_alive").set(self.scheduler.alive_workers)
        for priority, depth in self.queue.depth_by_priority().items():
            m.gauge("serve.queue_lane_depth", priority=priority).set(depth)
        return render_prometheus(m)

    def live_snapshot(self, flight_tail: int = 20) -> dict[str, Any]:
        """One ``stats-stream`` tick: everything the dashboard renders.

        Bundles :meth:`stats`, :meth:`health`, per-lane latency
        quantiles over the SLO tracker's ring (the last requests served
        in each lane, cache hits included), the SLO document and the
        flight recorder's last ``flight_tail`` events.
        """
        return {
            "op": "stats-tick",
            "uptime_seconds": self.uptime_seconds,
            "stats": self.stats(),
            "health": self.health().to_dict(),
            "latency": self._slo.latency(),
            "slo": self._slo.summary(),
            "flight_tail": self._flight.tail(flight_tail),
        }

    def slo_alerts(self) -> list[Any]:
        """Currently firing SLO burn-rate alerts."""
        return self._slo.alerts()

    def dump_flight(self, path: str | Path | None = None) -> int:
        """Dump the flight recorder to ``path`` (default: the configured
        ``flight_dump_path``); returns the number of events written,
        0 when there is nowhere to write."""
        target = path if path is not None else self.flight_dump_path
        if target is None:
            return 0
        return self._flight.dump(target)

