"""The SAMR execution simulator.

Trace replay is fault tolerant: whenever the cluster carries a failure
schedule, the simulator runs the Cactus-Worm loop natively — a
heartbeat/lease :class:`~repro.resilience.FailureDetector` declares
failures with configurable latency, coordinated checkpoints are taken at
every regrid boundary, and a detected failure triggers rollback to the
last checkpoint, a degraded-mode repartition over the surviving
processors (through the system-sensitive capacity path when capacities
are configured), and resumption.  Committed compute/comm time covers only
work that survived; everything lost to failures (rolled-back attempts,
restores, repartitions, stalls) is accounted as recovery time.

Gray failures get a *proportional* response instead of the full rollback:

- a node inside a :class:`~repro.gridsys.failures.DegradedWindow` keeps
  its work but the partition is re-weighted through the capacity-weighted
  sequence split, shrinking its share by the detector-perceived factor —
  degraded nodes are down-weighted, never evacuated;
- with ``eviction_hysteresis_polls > 0`` a suspect node is not evacuated
  until its outage also outlasts the hysteresis, so flapping nodes stall
  the interval briefly (counted under ``resilience.flap_suppressed``)
  instead of triggering a rollback per flap;
- with ``FaultTolerance.checkpoint_dir`` set, checkpoints are persisted
  through the crash-consistent
  :class:`~repro.resilience.DurableCheckpointStore`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.amr.trace import AdaptationTrace
from repro.config import SimulatorOptions
from repro.execsim.costmodel import CostModel, per_step_comm_times
from repro.execsim.reuse import UnitsReuseCache
from repro.execsim.selector import PartitionerSelector, SelectorDecision
from repro.gridsys.cluster import Cluster
from repro.partitioners.base import Partition
from repro.partitioners.metrics import PACMetrics, evaluate_partition
from repro.partitioners.units import build_units
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.detector import FailureDetector
from repro.resilience.durable import DurableCheckpointStore
from repro.resilience.recovery import FaultTolerance, RecoveryRecord
from repro.util.stats import max_load_imbalance_pct

__all__ = [
    "StepRecord",
    "RunResult",
    "ExecutionSimulator",
    "per_step_comm_times",
]


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Accounting for one regrid interval (one snapshot)."""

    step: int
    label: str
    octant: str | None
    coarse_steps: int
    compute_time: float
    comm_time: float
    regrid_time: float
    imbalance_pct: float
    metrics: PACMetrics
    #: coordinated checkpoint seconds charged at the interval boundary
    checkpoint_time: float = 0.0
    #: rollback + restore + repartition + stall seconds within the interval
    recovery_time: float = 0.0
    #: detect → rollback → resume cycles within the interval
    recoveries: int = 0
    #: processors owning work in the interval's committed partition
    #: (populated by fault-tolerant replay; empty otherwise)
    owners: tuple[int, ...] = ()
    #: processors live when the interval committed: the detector's view
    #: under fault-tolerant replay, every processor otherwise
    live_procs: tuple[int, ...] = ()
    #: simulated seconds at the interval's start
    start_time: float = 0.0
    #: the partitioner's share of ``regrid_time``
    partition_time: float = 0.0
    #: relative error (percent) of the last-value forecast of per-coarse-step
    #: cost; None for a run's first interval, which has no forecast
    forecast_error_pct: float | None = None

    @property
    def total_time(self) -> float:
        """Simulated seconds charged to the interval, all phases."""
        return (
            self.compute_time
            + self.comm_time
            + self.regrid_time
            + self.checkpoint_time
            + self.recovery_time
        )

    @property
    def step_cost(self) -> float:
        """Simulated seconds charged per coarse step."""
        return self.total_time / self.coarse_steps if self.coarse_steps else 0.0


@dataclass(slots=True)
class RunResult:
    """Aggregate result of one simulated run."""

    records: list[StepRecord] = field(default_factory=list)
    useful_work: float = 0.0
    ghost_work: float = 0.0
    proc_work: np.ndarray | None = None
    recovery_events: list[RecoveryRecord] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        """End-to-end execution time in simulated seconds."""
        return float(sum(r.total_time for r in self.records))

    @property
    def mean_imbalance_pct(self) -> float:
        """Time-weighted mean of per-interval max load imbalance.

        This is the "Max. Load Imbalance" column of Table 4: the average
        over the run of the per-step imbalance of the most loaded
        processor.
        """
        if not self.records:
            return 0.0
        weights = np.array([r.coarse_steps for r in self.records], dtype=float)
        imb = np.array([r.imbalance_pct for r in self.records])
        return float((imb * weights).sum() / weights.sum())

    @property
    def aggregate_imbalance_pct(self) -> float:
        """Imbalance of total per-processor work accumulated over the run.

        How unevenly the whole run's work ended up distributed, not a
        per-interval figure (that is :attr:`mean_imbalance_pct`, the Table
        4 column).  It rewards strategies whose instantaneous skews cancel
        over time, such as adaptive switching.
        """
        if self.proc_work is None or self.proc_work.sum() == 0:
            return 0.0
        return max_load_imbalance_pct(self.proc_work)

    @property
    def amr_efficiency_pct(self) -> float:
        """Useful cell updates over all updates including ghost overheads."""
        total = self.useful_work + self.ghost_work
        if total == 0:
            return 100.0
        return 100.0 * self.useful_work / total

    @property
    def total_comm_time(self) -> float:
        """Communication seconds over the run."""
        return float(sum(r.comm_time for r in self.records))

    @property
    def total_regrid_time(self) -> float:
        """Repartitioning + migration + bookkeeping seconds over the run."""
        return float(sum(r.regrid_time for r in self.records))

    @property
    def total_checkpoint_time(self) -> float:
        """Coordinated checkpoint seconds over the run."""
        return float(sum(r.checkpoint_time for r in self.records))

    @property
    def total_recovery_time(self) -> float:
        """Rollback + restore + repartition + stall seconds over the run."""
        return float(sum(r.recovery_time for r in self.records))

    @property
    def num_recoveries(self) -> int:
        """Detect → rollback → resume cycles over the run."""
        return len(self.recovery_events)

    @property
    def failures_detected(self) -> int:
        """Processor failures the detector declared during the run."""
        return sum(len(e.failed_nodes) for e in self.recovery_events)

    @property
    def max_recovery_lag(self) -> float:
        """Worst seconds from true failure to resumed execution."""
        return max((e.recovery_lag for e in self.recovery_events), default=0.0)

    def partitioner_usage(self) -> dict[str, int]:
        """Regrid count per partitioner label (adaptive-run diagnostics)."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.label] = out.get(r.label, 0) + 1
        return out


def _step_time(
    loads: np.ndarray,
    speeds: np.ndarray,
    comm_per_step: np.ndarray,
    overlap: float,
) -> tuple[float, float]:
    """One coarse step's (compute share, exposed comm share) in seconds.

    Latency-tolerant communication overlaps a configured fraction of ghost
    exchange with computation, but a step never completes before its
    communication does.
    """
    comp = np.zeros(len(loads))
    np.divide(loads, speeds, out=comp, where=loads > 0)
    exposed = comp + (1.0 - overlap) * comm_per_step
    step_total = float(
        max(np.max(exposed), float(np.max(comm_per_step, initial=0.0)))
    )
    comp_share = float(np.max(comp))
    return comp_share, max(step_total - comp_share, 0.0)


@dataclass(frozen=True, slots=True)
class _Rollback:
    """A fault-tolerant run's recovery policy, detector and checkpoints."""

    ft: FaultTolerance
    detector: FailureDetector
    store: CheckpointStore


class ExecutionSimulator:
    """Replays an adaptation trace on a cluster under a selection strategy."""

    def __init__(
        self,
        cluster: Cluster,
        num_procs: int | None = None,
        cost_model: CostModel | None = None,
        *,
        options: SimulatorOptions | None = None,
    ) -> None:
        """``options`` bundles the simulator tuning (the supported API).

        :class:`~repro.config.SimulatorOptions` collects ``num_procs``,
        ``cost_model``, ``capacities``, ``partition_time_scale``,
        ``fault_tolerance`` and ``incremental`` into one value; the
        positional ``num_procs`` / ``cost_model`` arguments remain
        first-class (the paper-era core signature) and override the
        corresponding options fields when given.

        ``fault_tolerance`` (via options) controls the rollback path:
        ``None`` (default) builds a default :class:`FaultTolerance`
        whenever the cluster carries failure events, a
        :class:`FaultTolerance` tunes detection latency / checkpoint
        costs, and ``False`` disables recovery entirely — failed
        processors then stall the run until repaired.  ``incremental``
        enables the regrid reuse cache
        (:class:`~repro.execsim.reuse.UnitsReuseCache`), bit-identical
        to full recomputation.
        """
        opts = options if options is not None else SimulatorOptions()
        if num_procs is not None:
            opts = replace(opts, num_procs=num_procs)
        if cost_model is not None:
            opts = replace(opts, cost_model=cost_model)

        self.cluster = cluster
        self.options = opts
        self.num_procs = opts.num_procs or cluster.num_nodes
        if self.num_procs > cluster.num_nodes:
            raise ValueError(
                f"num_procs {self.num_procs} exceeds cluster size "
                f"{cluster.num_nodes}"
            )
        self.cost = opts.cost_model or CostModel()
        self.capacities = opts.capacities
        self.partition_time_scale = opts.partition_time_scale
        ft = opts.fault_tolerance
        if ft is True:
            ft = FaultTolerance()
        self.fault_tolerance = ft
        self.incremental = opts.incremental
        self._all_procs = tuple(range(self.num_procs))

    def _resolve_fault_tolerance(self) -> FaultTolerance | None:
        if self.fault_tolerance is False:
            return None
        if self.fault_tolerance is None:
            faults = self.cluster.failures
            return FaultTolerance() if (faults.events or faults.degraded) else None
        return self.fault_tolerance

    def run(
        self,
        trace: AdaptationTrace,
        selector: PartitionerSelector,
        *,
        num_coarse_steps: int | None = None,
    ) -> RunResult:
        """Simulate the full run described by ``trace``.

        ``num_coarse_steps`` defaults to the trace metadata (or the last
        snapshot's step + the first interval).  An explicit value must be
        a positive integer — ``0`` is rejected rather than silently
        falling back to the trace metadata.
        """
        if len(trace) == 0:
            raise ValueError("trace is empty")
        total_steps = num_coarse_steps
        if total_steps is None:
            total_steps = trace.meta.get("num_coarse_steps")
        elif total_steps < 1:
            raise ValueError(
                f"num_coarse_steps must be >= 1, got {num_coarse_steps}"
            )
        if total_steps is None:
            steps = trace.steps()
            interval = steps[1] - steps[0] if len(steps) > 1 else 1
            total_steps = steps[-1] + interval

        ft = self._resolve_fault_tolerance()
        # Replay never mutates a snapshot (the reuse cache only diffs
        # successive hierarchies), so checkpoints alias the trace's.
        if ft is None:
            ckpt_store = None
        elif ft.checkpoint_dir is not None:
            ckpt_store = DurableCheckpointStore(ft.checkpoint_dir, ft.checkpoint)
        else:
            ckpt_store = CheckpointStore(ft.checkpoint)
        faults = self.cluster.failures
        rollback = (
            _Rollback(ft, FailureDetector(self.cluster, ft.detector), ckpt_store)
            if ft is not None and (faults.events or faults.degraded)
            else None
        )

        result = RunResult(proc_work=np.zeros(self.num_procs))
        prev_partition: Partition | None = None
        sim_time = 0.0
        reuse_cache = UnitsReuseCache() if self.incremental else None

        with obs.span("execsim.run", snapshots=len(trace)):
            for idx, snap in enumerate(trace):
                next_step = (
                    trace[idx + 1].step if idx + 1 < len(trace) else total_steps
                )
                coarse_steps = max(next_step - snap.step, 0)
                if coarse_steps == 0:
                    continue
                interval_t0 = sim_time
                previous_snap = trace[idx - 1] if idx > 0 else None
                decision = selector.decide(snap, previous_snap)
                label = decision.label or decision.partitioner.name

                # Total blackout at the interval boundary: wait until the
                # detector re-admits at least one processor.
                pre_stall = 0.0
                live: list[int] | None = None
                if rollback is not None:
                    live = rollback.detector.live_nodes(sim_time)
                    if not live:
                        t_ret, live = self._readmit(rollback.detector, sim_time)
                        pre_stall = t_ret - sim_time
                        sim_time = t_ret

                with obs.span("partition", partitioner=label):
                    if reuse_cache is not None:
                        units = reuse_cache.units_for(
                            snap.hierarchy,
                            granularity=decision.granularity,
                            curve="hilbert",
                        )
                    else:
                        units = build_units(
                            snap.hierarchy, granularity=decision.granularity,
                            curve="hilbert",
                        )
                    weights = (
                        self._degraded_weights(rollback.detector, sim_time)
                        if rollback is not None
                        else None
                    )
                    partition = self._partition_over(
                        decision, units, live, weights
                    )
                    metrics = evaluate_partition(partition, prev_partition)

                # Coordinated checkpoint at the regrid boundary.
                checkpoint_t = 0.0
                if ckpt_store is not None:
                    _, checkpoint_t = ckpt_store.save(
                        snap.step, sim_time, snap.hierarchy
                    )

                tl = obs.get_timeline()
                if checkpoint_t > 0.0:
                    tl.event(
                        "checkpoint", t=interval_t0, step=snap.step,
                        seconds=checkpoint_t,
                    )
                # The interval's steps run after its checkpoint.
                comp_t, comm_t, ghost, recovery_t, partition, recs, live = (
                    self._interval_cost(
                        partition, snap, coarse_steps, sim_time + checkpoint_t,
                        rollback,
                        decision=decision, units=units, live=live,
                    )
                )
                recovery_t += pre_stall
                result.recovery_events.extend(recs)
                for rec in recs:
                    tl.event(
                        "recovery", t=rec.t_detected, step=snap.step,
                        failed_nodes=[int(p) for p in rec.failed_nodes],
                        detection_lag_s=rec.detection_lag,
                        steps_lost=rec.steps_lost,
                    )
                record = self.commit_interval(
                    result, snap, partition, metrics,
                    label=label, octant=decision.octant,
                    coarse_steps=coarse_steps, start_time=interval_t0,
                    costs=(comp_t, comm_t, ghost), checkpoint_time=checkpoint_t,
                    recovery_time=recovery_t, recoveries=len(recs), live=live,
                )
                sim_time += record.total_time
                prev_partition = partition
        return result

    def commit_interval(
        self,
        result: RunResult,
        snap,
        partition: Partition,
        metrics: PACMetrics,
        *,
        label: str,
        octant: str | None,
        coarse_steps: int,
        start_time: float,
        repartitioned: bool = True,
        costs: tuple[float, float, float] | None = None,
        checkpoint_time: float = 0.0,
        recovery_time: float = 0.0,
        recoveries: int = 0,
        live: list[int] | None = None,
    ) -> StepRecord:
        """Account one regrid interval and fold it into ``result``.

        The one place a :class:`StepRecord` is built: it appends the record,
        adds the interval's per-processor, useful and ghost work, and hands
        the same record to the current obs timeline.  ``costs`` is the
        ``(compute, comm, ghost)`` triple replay already integrated;
        ``None`` integrates the interval from ``start_time``.
        ``repartitioned=False`` (a carried-forward decomposition) charges
        no regrid cost.  ``live`` is the detector's live set under
        fault-tolerant replay.
        """
        if costs is None:
            costs = self._interval_cost(
                partition, snap, coarse_steps, start_time
            )[:3]
        comp_t, comm_t, ghost = costs
        partition_t, regrid_t = (
            self._regrid_cost(metrics, partition, snap)
            if repartitioned
            else (0.0, 0.0)
        )
        loads = partition.proc_loads()
        # Last-value forecast of per-coarse-step cost (the simplest
        # predictor the NWS ensemble carries), scored against this interval.
        step_cost = (
            comp_t + comm_t + regrid_t + checkpoint_time + recovery_time
        ) / coarse_steps
        prev = result.records[-1] if result.records else None
        record = StepRecord(
            step=snap.step,
            label=label,
            octant=octant,
            coarse_steps=coarse_steps,
            compute_time=comp_t,
            comm_time=comm_t,
            regrid_time=regrid_t,
            imbalance_pct=max_load_imbalance_pct(loads),
            metrics=metrics,
            checkpoint_time=checkpoint_time,
            recovery_time=recovery_time,
            recoveries=recoveries,
            owners=(
                tuple(int(p) for p in np.unique(partition.assignment))
                if live is not None
                else ()
            ),
            live_procs=tuple(live) if live is not None else self._all_procs,
            start_time=start_time,
            partition_time=partition_t,
            forecast_error_pct=(
                100.0 * abs(prev.step_cost - step_cost) / step_cost
                if prev is not None and step_cost > 0
                else None
            ),
        )
        result.records.append(record)
        result.proc_work += loads * coarse_steps
        result.useful_work += snap.hierarchy.load_per_coarse_step() * coarse_steps
        result.ghost_work += ghost * coarse_steps
        obs.get_timeline().record(record)
        return record

    # -- partitioning over survivors ---------------------------------------------------

    def _degraded_weights(
        self, detector: FailureDetector, t: float
    ) -> np.ndarray | None:
        """Per-processor capacity down-weights the detector perceives at ``t``.

        ``None`` when no degraded window is visible — the common case, so
        the partition call stays byte-identical to the non-gray path.
        """
        if not self.cluster.failures.degraded:
            return None
        w = np.array(
            [
                detector.detected_capacity_factor(p, t)
                for p in range(self.num_procs)
            ]
        )
        return w if np.any(w < 1.0) else None

    def _partition_over(
        self,
        decision: SelectorDecision,
        units,
        live: list[int] | None = None,
        weights: np.ndarray | None = None,
    ) -> Partition:
        """Partition ``units``, restricted to the ``live`` processors.

        With all processors live this is the ordinary partition call.  In
        degraded mode the partitioner runs over the survivors — with the
        system-sensitive capacities restricted to them when configured —
        and the assignment is mapped back to global processor ids, so
        every unit is owned by a live processor by construction.

        ``weights`` (detector-perceived capacity factors, 1.0 = healthy)
        is the gray-failure response: when any processor is down-weighted
        the split is forced through the capacity-weighted sequence path —
        most partitioners ignore capacities, and a degraded node must
        shed load *without* being evacuated.
        """
        if live is not None and not live:
            raise RuntimeError("no live processors to partition over")
        if live is None or len(live) == self.num_procs:
            if weights is None:
                return decision.partitioner.partition(
                    units, self.num_procs, self.capacities
                )
            return self._weighted_partition(
                decision, units, np.arange(self.num_procs), weights
            )
        live_arr = np.asarray(sorted(live), dtype=int)
        if weights is not None:
            return self._weighted_partition(decision, units, live_arr, weights)
        caps = None
        if self.capacities is not None:
            caps = np.asarray(self.capacities, dtype=float)[live_arr]
            if caps.sum() <= 0:
                caps = None
        sub = decision.partitioner.partition(units, len(live_arr), caps)
        obs.counter("resilience.degraded_partitions").inc()
        return self._on_survivors(sub, live_arr, degraded=True)

    def _weighted_partition(
        self,
        decision: SelectorDecision,
        units,
        live_arr: np.ndarray,
        weights: np.ndarray,
    ) -> Partition:
        """Capacity-weighted split over ``live_arr`` with gray down-weights.

        Routes through :class:`HeterogeneousPartitioner` (the
        system-sensitive path) with effective capacities = configured
        capacities × detector down-weights, then maps back to global
        processor ids.  Keeps the selector's decision label/granularity
        semantics out of scope on purpose: proportional load shedding
        matters more than the partitioner flavor while a node is gray.
        """
        from repro.partitioners.hetero import HeterogeneousPartitioner

        base = (
            np.asarray(self.capacities, dtype=float)
            if self.capacities is not None
            else np.ones(self.num_procs)
        )
        caps = (base * np.asarray(weights, dtype=float))[live_arr]
        if caps.sum() <= 0:
            caps = np.ones(len(live_arr))
        sub = HeterogeneousPartitioner().partition(units, len(live_arr), caps)
        flags = {
            "degraded_downweight": True,
            "capacity_weights": [float(w) for w in weights[live_arr]],
        }
        obs.counter("resilience.degraded_downweights").inc()
        if len(live_arr) < self.num_procs:
            flags["degraded"] = True
            obs.counter("resilience.degraded_partitions").inc()
        return self._on_survivors(sub, live_arr, **flags)

    def _on_survivors(
        self, sub: Partition, live_arr: np.ndarray, **flags
    ) -> Partition:
        """Map ``sub``, a partition over ``len(live_arr)`` processors, back
        to global processor ids; ``flags`` are added to its params."""
        return Partition(
            units=sub.units,
            num_procs=self.num_procs,
            assignment=live_arr[sub.assignment],
            partitioner_name=sub.partitioner_name,
            partition_time=sub.partition_time,
            params={
                **sub.params, **flags, "live_procs": [int(p) for p in live_arr]
            },
        )

    def _readmit(
        self, detector: FailureDetector, t: float
    ) -> tuple[float, list[int]]:
        """Wait out a total blackout: the first time at or after ``t`` the
        detector re-admits a processor, and the live set then."""
        t_ret = min(
            detector.next_evictable_alive(p, t) for p in range(self.num_procs)
        )
        if math.isinf(t_ret):
            raise RuntimeError(
                "all processors failed permanently; the run cannot recover"
            )
        return t_ret, detector.live_nodes(t_ret)

    # -- cost integration ------------------------------------------------------------

    def _speeds(self, t: float) -> np.ndarray:
        """Per-processor effective speeds at ``t``."""
        return np.array(
            [self.cluster.effective_speed(p, t) for p in range(self.num_procs)]
        )

    def _interval_cost(
        self,
        partition: Partition,
        snap,
        coarse_steps: int,
        t0: float,
        rollback: _Rollback | None = None,
        *,
        decision: SelectorDecision | None = None,
        units=None,
        live: list[int] | None = None,
    ) -> tuple[
        float, float, float, float, Partition, list[RecoveryRecord],
        list[int] | None,
    ]:
        """Integrate one regrid interval's coarse steps from ``t0``.

        The simulator's one coarse-step loop, shared by plain replay, the
        online loop and fault-tolerant replay.  Each step runs at the
        speeds the cluster offers at its start.  A step whose owner sits
        on a down node waits instead, and only that wait depends on
        ``rollback``:

        - without it the step stalls until the node is repaired (no
          rollback, no migration) and the wait is charged as exposed
          communication; a permanent failure raises;
        - with it an *evictable* failure (one that outlasted both the
          lease and the eviction hysteresis) rolls the interval back to
          the checkpoint taken at its regrid boundary, repartitions
          ``units`` under ``decision`` over the survivors and
          re-executes; an undeclared or merely-suspect outage (lease not
          expired, hysteresis still accruing, or a blip too short to ever
          cross either line) stalls execution until the eviction fires or
          the node returns, charged as recovery — that is what bounds
          flap-induced rollbacks.

        Returns ``(compute, comm, ghost work per coarse step, recovery
        seconds, final partition, recovery records, final live set)`` —
        compute/comm cover only the committed attempt.
        """
        cost = self.cost
        failures = self.cluster.failures
        intra_ghost = (
            cost.intra_ghost_factor * snap.hierarchy.load_per_coarse_step()
        )

        def prepare(p: Partition):
            comm_per_step, ghost = per_step_comm_times(
                p, cost, self.cluster.link.bandwidth
            )
            return p.proc_loads(), comm_per_step, ghost + intra_ghost

        with obs.span("interval_cost", coarse_steps=coarse_steps):
            loads, comm_per_step, ghost = prepare(partition)
            # Constant speeds: every step costs the same.  Multiplying,
            # not summing, keeps the replayed totals' last bits.
            if (
                self.cluster.loadgen is None
                and not failures.events
                and not failures.degraded
            ):
                comp_share, comm_share = _step_time(
                    loads, self._speeds(t0), comm_per_step, cost.comm_overlap
                )
                return (
                    comp_share * coarse_steps, comm_share * coarse_steps,
                    ghost, 0.0, partition, [], live,
                )

            t = t0
            steps_done = 0
            comp_t = comm_t = stall_t = 0.0
            recovery_t = 0.0
            records: list[RecoveryRecord] = []
            while steps_done < coarse_steps:
                dead = (
                    [p for p in live if rollback.detector.evictable_down(p, t)]
                    if rollback is not None
                    else []
                )
                if dead:
                    if len(records) >= rollback.ft.max_recoveries_per_interval:
                        raise RuntimeError(
                            f"livelock at step {snap.step}: "
                            f"{len(records)} recoveries within one regrid "
                            "interval; failures arrive faster than the "
                            "interval can be re-executed"
                        )
                    detector = rollback.detector
                    t_detected = t
                    lag = max(
                        t - detector.true_fail_time(p, t) for p in dead
                    )
                    wasted = comp_t + comm_t + stall_t
                    steps_lost = steps_done
                    comp_t = comm_t = stall_t = 0.0
                    steps_done = 0
                    _, restore_s = rollback.store.restore()
                    t += restore_s
                    live = [p for p in live if p not in dead]
                    blackout = 0.0
                    if not live:
                        t_ret, live = self._readmit(detector, t)
                        blackout = t_ret - t
                        t = t_ret
                    prev = partition
                    partition = self._partition_over(
                        decision, units, live,
                        self._degraded_weights(detector, t),
                    )
                    repart_metrics = evaluate_partition(partition, prev)
                    _, repart_s = self._regrid_cost(
                        repart_metrics, partition, snap
                    )
                    t += repart_s
                    recovery_t += wasted + restore_s + blackout + repart_s
                    loads, comm_per_step, ghost = prepare(partition)
                    record = RecoveryRecord(
                        step=snap.step,
                        failed_nodes=tuple(dead),
                        t_detected=t_detected,
                        detection_lag=lag,
                        wasted_seconds=wasted + blackout,
                        restore_seconds=restore_s,
                        repartition_seconds=repart_s,
                        steps_lost=steps_lost,
                        live_after=tuple(live),
                    )
                    records.append(record)
                    obs.counter("resilience.failures_detected").inc(len(dead))
                    obs.counter("resilience.recoveries").inc()
                    obs.counter("resilience.rollback_seconds").inc(
                        wasted + restore_s
                    )
                    obs.histogram("resilience.recovery_lag").observe(
                        record.recovery_lag
                    )
                    continue

                speeds = self._speeds(t)
                blocked = np.nonzero((loads > 0) & (speeds <= 0.0))[0].tolist()
                if blocked:
                    t_back = min(failures.next_alive_time(p, t) for p in blocked)
                    if rollback is None:
                        if math.isinf(t_back):
                            raise RuntimeError(
                                f"processors {blocked} failed permanently "
                                "during trace replay with fault tolerance "
                                "disabled; enable fault tolerance "
                                "(repro.resilience.FaultTolerance) to recover"
                            )
                        t_wake, beat = t_back, 1.0
                    else:
                        # A node that returns before its eviction fires is
                        # a suppressed flap, not a rollback.
                        t_fire = min(
                            rollback.detector.eviction_fire_time(p, t)
                            for p in blocked
                        )
                        if t_back < t_fire:
                            obs.counter("resilience.flap_suppressed").inc()
                        t_wake = min(t_fire, t_back)
                        beat = rollback.detector.config.heartbeat_period
                    if t_wake <= t:
                        # Node is up but starved: re-check after a beat.
                        t_wake = t + beat
                    if rollback is None:
                        comm_t += t_wake - t
                    else:
                        stall_t += t_wake - t
                        obs.counter("resilience.stall_seconds").inc(t_wake - t)
                    t = t_wake
                    continue

                comp_share, comm_share = _step_time(
                    loads, speeds, comm_per_step, cost.comm_overlap
                )
                comp_t += comp_share
                comm_t += comm_share
                t += comp_share + comm_share
                steps_done += 1

        # Transient stalls of the committed attempt are overhead, not work.
        recovery_t += stall_t
        return comp_t, comm_t, ghost, recovery_t, partition, records, live

    def _regrid_cost(
        self, metrics: PACMetrics, partition: Partition, snap
    ) -> tuple[float, float]:
        """(partitioner seconds, total regrid seconds including them)."""
        cost = self.cost
        bw = self.cluster.link.bandwidth
        migration_t = (
            metrics.data_migration
            * cost.bytes_per_migrated_load
            / (bw * max(self.num_procs, 1))
        )
        overhead_t = metrics.overhead * cost.seconds_per_fragment
        # Patch-based partitioners tear down and redistribute the full patch
        # list at every regrid; domain-based schemes shift contiguous
        # ranges incrementally.
        if partition.params.get("full_redistribution", False):
            overhead_t += (
                snap.hierarchy.num_patches * cost.seconds_per_patch_shuffle
            )
        partition_t = metrics.partition_time * self.partition_time_scale
        return partition_t, partition_t + migration_t + overhead_t
