"""One simulated world: the real runtime under virtual time.

:class:`SimWorld` wires a **real** :class:`~repro.serve.server.
ScenarioServer` (no worker pool — parked cooperative tasks drive
:meth:`~repro.serve.scheduler.Scheduler.step` instead) and a **real**
:class:`~repro.resilience.detector.FailureDetector` (heartbeats are
:class:`~repro.simtest.clock.SimClock` timers on an exact grid) into a
closed world, then executes a :class:`~repro.simtest.script.
WorkloadScript` under a seeded cooperative schedule:

- every server/scheduler job event funnels through one listener that
  feeds the :class:`~repro.simtest.invariants.InvariantChecker`, appends
  to the trace, and *parks the emitting task* — so the windows between
  an event and the code after it (commit → pop, cancel → done-set) are
  exactly the schedule points the fuzzer permutes;
- client tasks run the script's ops (submits, cancels, awaits, drains,
  clock advances, fault injections), worker tasks run one batch dispatch
  per grant;
- fault ops write ground-truth outages aligned to the heartbeat grid so
  the detector-hysteresis invariant is exact: an outage spanning fewer
  polls than ``misses_to_declare + eviction_hysteresis_polls`` is a flap
  the detector must absorb.

The controller loop (:meth:`SimWorld.run`) grants one task per step,
checks step invariants while everything is parked, and declares a
violation on stall (lost wakeup / deadlock), task crash, or
non-termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.gridsys.cluster import Cluster
from repro.gridsys.failures import FailureEvent
from repro.gridsys.node import Node
from repro.resilience.detector import DetectorConfig, FailureDetector
from repro.serve.server import JobHandle, ScenarioServer
from repro.simtest.clock import SimClock
from repro.simtest.invariants import InvariantChecker
from repro.simtest.scheduler import SimScheduler, sim_wait, sim_yield
from repro.simtest.script import WorkloadScript
from repro.sweep.scenario import FunctionScenario, ScenarioContext, register

__all__ = ["SimWorld", "HandleEntry", "SIM_DETECTOR_CONFIG"]

#: the world's detector tuning: declare-at = 2 misses + 2 hysteresis
#: polls = 4 consecutive missed heartbeats on a 1 s grid
SIM_DETECTOR_CONFIG = DetectorConfig(
    heartbeat_period=1.0,
    misses_to_declare=2,
    eviction_hysteresis_polls=2,
    recovery_confirmations=1,
)

_SIM_NODES = 3


def _sim_fast(ctx: ScenarioContext) -> dict[str, int]:
    x = int(ctx.params.get("x", 0))
    sim_yield("scenario:fast")
    return {"x": x, "square": x * x}


def _sim_slow(ctx: ScenarioContext) -> dict[str, int]:
    x = int(ctx.params.get("x", 0))
    for i in range(3):
        sim_yield(f"scenario:slow-{i}")
    return {"x": x, "square": x * x}


def _sim_boom(ctx: ScenarioContext) -> dict[str, int]:
    sim_yield("scenario:boom")
    raise RuntimeError("sim-boom always fails")


def register_sim_scenarios() -> None:
    """(Re-)register the simulation's scenario vocabulary (idempotent)."""
    for name, fn in (
        ("sim-fast", _sim_fast),
        ("sim-slow", _sim_slow),
        ("sim-boom", _sim_boom),
    ):
        register(FunctionScenario(name, fn), replace=True)


@dataclass
class HandleEntry:
    """The world's bookkeeping for one script handle."""

    hid: str
    handle: JobHandle
    scenario: str
    x: int
    client: int = 0


@dataclass
class _Outcome:
    """What :meth:`SimWorld.run` leaves behind for the fuzzer."""

    completed: bool = False
    stalled: bool = False
    extra: dict[str, Any] = field(default_factory=dict)


class SimWorld:
    """A deterministic simulation of the serving + resilience stack."""

    def __init__(self, script: WorkloadScript, seed: int) -> None:
        register_sim_scenarios()
        self.script = script
        self.seed = seed
        self.clock = SimClock()
        self.sched = SimScheduler(seed)
        self.checker = InvariantChecker()
        self.trace: list[dict[str, Any]] = []
        self.handles: dict[str, HandleEntry] = {}
        self.cancel_attempted: set[str] = set()
        self.outages: list[dict[str, Any]] = []
        self._node_free_at: dict[int, float] = {}
        self.stop_workers = False
        self.outcome = _Outcome()
        self.cluster = Cluster(
            nodes=[Node(node_id=i) for i in range(_SIM_NODES)]
        )
        self.detector = FailureDetector(
            self.cluster, SIM_DETECTOR_CONFIG, clock=self.clock
        )
        self.clock.every(
            SIM_DETECTOR_CONFIG.heartbeat_period,
            self._heartbeat,
            name="detector-heartbeat",
        )
        self.server = ScenarioServer(
            workers=script.workers,
            queue_capacity=script.queue_capacity,
            max_batch=script.max_batch,
            use_cache=script.use_cache,
            max_retries=script.max_retries,
            scenario_modules=(),
            death_injector=self._death,
            clock=self.clock,
            sleeper=self._sim_sleep,
            start=False,
        )
        self.server.add_listener(self._on_event)
        self._ops_by_client: dict[int, list[dict[str, Any]]] = {
            cid: [] for cid in range(script.clients)
        }
        for op in script.ops:
            cid = int(op.get("client", 0)) % script.clients
            self._ops_by_client[cid].append(op)
        self._client_tasks = [
            self.sched.spawn(f"client-{cid}", self._client_fn(cid))
            for cid in range(script.clients)
        ]
        self._worker_tasks = [
            self.sched.spawn(f"worker-{wid}", self._worker_fn(wid))
            for wid in range(script.workers)
        ]

    # -- seams -------------------------------------------------------------------

    def _sim_sleep(self, dt: float) -> None:
        # the runtime's only in-sim sleeper (retry backoff): virtual
        # time moves, due timers fire, and the sleeping task parks
        self.clock.advance(dt)
        sim_yield("sleep")

    def _death(self, job: Any, attempt: int) -> str | None:
        return self.script.death_plan(job.seq, attempt)

    def _heartbeat(self) -> None:
        for ev in self.detector.poll_now():
            self.trace.append({
                "e": "detect", "kind": ev.kind, "node": ev.node_id,
                "t": round(ev.t_detected, 6),
            })

    def _on_event(self, job: Any, kind: str, t: float,
                  attrs: dict[str, Any]) -> None:
        self.checker.observe_event(job, kind, t, self.sched.steps)
        rec: dict[str, Any] = {
            "e": "ev", "kind": kind, "job": job.seq, "t": round(t, 6),
        }
        for key in sorted(attrs):
            value = attrs[key]
            if isinstance(value, (str, int, float, bool)):
                rec[key] = round(value, 6) if isinstance(value, float) else value
        self.trace.append(rec)
        # park the emitting task *here*: the window between an event and
        # the code after it (commit -> done-set -> inflight pop) is where
        # the interesting races live
        sim_yield(f"event:{kind}")

    # -- task bodies -------------------------------------------------------------

    def _client_fn(self, cid: int):
        def _body() -> None:
            for op in self._ops_by_client[cid]:
                sim_yield("op-start")
                self._run_op(cid, op)
        return _body

    def _worker_fn(self, wid: int):
        def _body() -> None:
            while True:
                sim_wait(
                    "worker-idle",
                    lambda: self.stop_workers or len(self.server.queue) > 0,
                )
                if self.stop_workers and len(self.server.queue) == 0:
                    return
                self.server.scheduler.step(wid)
        return _body

    def _run_op(self, cid: int, op: dict[str, Any]) -> None:
        kind = op["op"]
        self.trace.append({
            "e": "op", "client": cid,
            **{k: v for k, v in op.items() if k != "client"},
        })
        if kind == "submit":
            handle = self.server.submit(
                op["scenario"], {"x": int(op["x"])},
                priority=op.get("priority", "normal"),
            )
            self.handles[op["handle"]] = HandleEntry(
                hid=op["handle"], handle=handle,
                scenario=op["scenario"], x=int(op["x"]), client=cid,
            )
        elif kind == "cancel":
            entry = self.handles.get(op["handle"])
            if entry is None:
                return
            self.cancel_attempted.add(op["handle"])
            ok = entry.handle.cancel()
            self.trace.append({
                "e": "cancel-result", "handle": op["handle"], "ok": bool(ok),
            })
        elif kind == "await":
            entry = self.handles.get(op["handle"])
            if entry is None:
                return
            sim_wait("await", lambda: entry.handle.done)
            self.trace.append({
                "e": "await-result", "handle": op["handle"],
                "status": entry.handle.status,
            })
        elif kind == "drain":
            sim_wait("drain", lambda: not self.server._inflight)
            ok = self.server.drain(timeout=0)
            self.trace.append({"e": "drain-result", "ok": bool(ok)})
        elif kind == "advance":
            self.clock.advance(float(op["dt"]))
            sim_yield("advance")
        elif kind == "fault":
            self._inject_fault(op)

    def _inject_fault(self, op: dict[str, Any]) -> None:
        """Write one grid-aligned ground-truth outage.

        ``t_fail`` lands half a period before the next heartbeat tick
        and ``t_recover`` exactly ``polls`` periods later, so the outage
        covers precisely ``polls`` heartbeats.  A new outage on a node
        must leave at least one healthy heartbeat after the previous one
        (the detector's miss counter is consecutive); conflicting ops
        are skipped deterministically.
        """
        cfg = self.detector.config
        period = cfg.heartbeat_period
        node = int(op["node"]) % self.cluster.num_nodes
        polls = max(1, int(op["polls"]))
        t_fail = (math.floor(self.clock.now() / period) + 1) * period - period / 2
        free_at = self._node_free_at.get(node)
        if free_at is not None and t_fail < free_at + period:
            self.trace.append({"e": "fault-skipped", "node": node})
            return
        t_recover = t_fail + polls * period
        self.cluster.failures.add(
            FailureEvent(node_id=node, t_fail=t_fail, t_recover=t_recover)
        )
        self._node_free_at[node] = t_recover
        self.outages.append({
            "node": node, "t_fail": t_fail, "t_recover": t_recover,
            "polls": polls,
        })
        self.trace.append({
            "e": "fault", "node": node, "t_fail": round(t_fail, 6),
            "polls": polls,
        })

    # -- controller --------------------------------------------------------------

    def _clients_done(self) -> bool:
        return all(task.done for task in self._client_tasks)

    def run(self, max_steps: int = 50_000) -> None:
        """Drive the world to quiescence (or to a violation)."""
        try:
            while True:
                if self._clients_done() and not self.stop_workers:
                    self.stop_workers = True
                if all(task.done for task in self.sched.tasks):
                    self.outcome.completed = True
                    break
                task = self.sched.step()
                if task is None:
                    live = [
                        (t.name, t.where) for t in self.sched.live
                    ]
                    self.outcome.stalled = True
                    self.checker.violate(
                        "no-deadlock",
                        f"all live tasks are blocked (lost wakeup or "
                        f"deadlock): {live}",
                        self.sched.steps,
                    )
                    break
                if task.error is not None:
                    self.checker.violate(
                        "no-uncaught-task-error",
                        f"{task.name} crashed at {task.where!r}: "
                        f"{type(task.error).__name__}: {task.error}",
                        self.sched.steps,
                    )
                    break
                self.checker.check_step(self, self.sched.steps)
                if self.checker.violations:
                    break
                if self.sched.steps >= max_steps:
                    self.checker.violate(
                        "termination",
                        f"no quiescence after {max_steps} scheduling steps",
                        self.sched.steps,
                    )
                    break
        finally:
            self.sched.abort_all()
        if self.outcome.completed and not self.checker.violations:
            self.checker.check_quiescent(self)
        try:
            self.server.shutdown(wait=False)
        except Exception:  # noqa: BLE001 - teardown must not mask findings
            pass
