"""Chaos harness: Poisson failure sweeps over the quickstart scenario.

Drives the reduced RM3D quickstart through the fault-tolerant execution
simulator under seeded :meth:`FailureSchedule.poisson` schedules and
asserts the recovery invariants end-to-end:

1. **No coarse-step work is lost** — every planned coarse step is
   committed despite rollbacks.
2. **Every patch is owned by a live node** — each interval's owner set is
   a subset of the detected-live processor set.
3. **Recovery lag is bounded** — failure-to-resume never exceeds the
   configured detection latency plus a slack proportional to the clean
   runtime.

A companion agent-layer soak runs the CATALINA control network (MCS +
ADM + CAs) on the same failing cluster over a lossy message-center link,
checking the application still completes while counting retries, dead
letters and migrations.

``python -m repro chaos`` runs the sweep from the command line;
``benchmarks/test_chaos_recovery.py`` pins it in CI and writes
``BENCH_chaos.json``.

The *chaos matrix* (``python -m repro chaos --matrix``) extends the sweep
from crashes to the full gray-failure vocabulary: one deterministic cell
per (fault type × intensity) — ``crash``, ``degraded`` (capacity
down-weight, never evacuated), ``flapping`` (eviction hysteresis bounds
rollbacks), ``partition`` (severed sends dead-letter; duplicates are
deduped), ``checkpoint`` (corrupted records are skipped by the durable
walk-back) — each gated on its own invariants.

This module imports the simulator and agents layers, so it is *not*
re-exported from :mod:`repro.resilience` — import it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.config import SimulatorOptions
from repro.resilience.detector import DetectorConfig
from repro.resilience.recovery import FaultTolerance

__all__ = [
    "ChaosConfig",
    "MatrixConfig",
    "run_chaos",
    "render_chaos",
    "run_chaos_matrix",
    "render_chaos_matrix",
    "FAULT_TYPES",
    "INTENSITIES",
]

#: fault families the matrix can inject
FAULT_TYPES = ("crash", "degraded", "flapping", "partition", "checkpoint")
#: supported intensity grades
INTENSITIES = ("low", "high")


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """Knobs for one chaos sweep."""

    num_procs: int = 16
    #: coarse steps per replay (reduced from the quickstart's 160 for CI)
    num_coarse_steps: int = 96
    #: mean time between failures per node (simulated seconds)
    mtbf: float = 300.0
    #: mean time to repair (simulated seconds)
    mttr: float = 40.0
    #: one fault-tolerant replay per seed
    seeds: tuple[int, ...] = (0, 1, 2)
    #: message-center loss rate for the agent-layer soak (0 skips the soak)
    loss_rate: float = 0.05
    #: recovery-lag budget beyond detection latency, as a fraction of the
    #: clean runtime (floored at 10 s)
    lag_slack_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {self.num_procs}")
        if self.num_coarse_steps < 1:
            raise ValueError(
                f"num_coarse_steps must be >= 1, got {self.num_coarse_steps}"
            )
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ValueError("mtbf and mttr must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.lag_slack_fraction < 0:
            raise ValueError("lag_slack_fraction must be >= 0")


def _quickstart_pieces(config: ChaosConfig):
    """Trace + selector + clean-cluster factory for the reduced scenario."""
    from repro.apps.base import generate_trace
    from repro.execsim import StaticSelector
    from repro.gridsys import sp2_blue_horizon
    from repro.obs.report import quickstart_scenario
    from repro.partitioners import ISPPartitioner

    app, policy, _runtime = quickstart_scenario()
    trace = generate_trace(app, policy, config.num_coarse_steps)
    selector = StaticSelector(ISPPartitioner())
    return trace, selector, lambda: sp2_blue_horizon(config.num_procs)


def _replay_one(config: ChaosConfig, seed: int, trace, selector,
                make_cluster, clean_runtime: float, ft: FaultTolerance) -> dict:
    """One fault-tolerant replay under a seeded Poisson schedule."""
    from repro.execsim import ExecutionSimulator
    from repro.gridsys import FailureSchedule

    horizon = 3.0 * clean_runtime
    schedule = FailureSchedule.poisson(
        num_nodes=config.num_procs, horizon=horizon,
        mtbf=config.mtbf, mttr=config.mttr, seed=seed,
    )
    cluster = make_cluster()
    cluster.failures.events.extend(schedule.events)

    res = ExecutionSimulator(cluster, options=SimulatorOptions(fault_tolerance=ft)).run(trace, selector)

    planned = trace.meta["num_coarse_steps"]
    executed = sum(r.coarse_steps for r in res.records)
    owners_live = all(
        set(r.owners) <= set(r.live_procs) for r in res.records
    )
    lag_bound = ft.detector.detection_latency + max(
        10.0, config.lag_slack_fraction * clean_runtime
    )
    lag_ok = res.max_recovery_lag <= lag_bound
    return {
        "seed": seed,
        "schedule_events": len(schedule.events),
        "planned_steps": planned,
        "executed_steps": executed,
        "recoveries": res.num_recoveries,
        "failures_detected": res.failures_detected,
        "runtime": res.total_runtime,
        "checkpoint_time": res.total_checkpoint_time,
        "recovery_time": res.total_recovery_time,
        "max_recovery_lag": res.max_recovery_lag,
        "recovery_lag_bound": lag_bound,
        "overhead_pct": 100.0 * (res.total_runtime - clean_runtime)
        / clean_runtime,
        "invariants": {
            "no_work_lost": executed == planned,
            "owners_live": owners_live,
            "lag_bounded": lag_ok,
        },
    }


def _soak_one(config: ChaosConfig, seed: int) -> dict:
    """Agent-layer soak: lossy control network on a failing cluster."""
    from repro.agents import (
        DeliveryPolicy,
        ManagementComputingSystem,
        ManagementEditor,
    )
    from repro.gridsys import FailureSchedule, sp2_blue_horizon

    cluster = sp2_blue_horizon(min(config.num_procs, 8))
    cluster.failures.events.extend(
        FailureSchedule.poisson(
            num_nodes=cluster.num_nodes, horizon=600.0,
            mtbf=config.mtbf, mttr=config.mttr, seed=1000 + seed,
        ).events
    )
    # Work sized so each component runs a few hundred ticks on an idle SP2
    # node — long enough to live through several scheduled outages.
    spec = ManagementEditor("chaos-soak")
    for i in range(4):
        spec.add_component(f"c{i}", 4e8)
    spec = spec.require("performance", 1.0).build()
    policy = DeliveryPolicy(loss_rate=config.loss_rate, seed=seed)
    mcs = ManagementComputingSystem(cluster, delivery_policy=policy)
    env = mcs.build_environment(spec)
    env.run(2000.0)
    mc = env.message_center
    return {
        "seed": seed,
        "completed": env.done,
        "delivered": mc.delivered_count,
        "retries": mc.retry_count,
        "dead_letters": mc.dead_letter_count,
        "migrations": sum(c.migrations for c in env.components),
    }


def run_chaos(config: ChaosConfig | None = None) -> dict:
    """Run the chaos sweep; returns the BENCH_chaos.json document."""
    config = config or ChaosConfig()
    trace, selector, make_cluster = _quickstart_pieces(config)
    ft = FaultTolerance()

    from repro.execsim import ExecutionSimulator

    clean = ExecutionSimulator(
        make_cluster(), options=SimulatorOptions(fault_tolerance=False)
    ).run(trace, selector)
    clean_runtime = clean.total_runtime

    runs = [
        _replay_one(config, seed, trace, selector, make_cluster,
                    clean_runtime, ft)
        for seed in config.seeds
    ]
    soaks = (
        [_soak_one(config, seed) for seed in config.seeds]
        if config.loss_rate > 0.0
        else []
    )

    all_hold = all(all(r["invariants"].values()) for r in runs) and all(
        s["completed"] for s in soaks
    )
    return {
        "scenario": "quickstart-rm3d-chaos",
        "config": {
            "num_procs": config.num_procs,
            "num_coarse_steps": config.num_coarse_steps,
            "mtbf": config.mtbf,
            "mttr": config.mttr,
            "seeds": list(config.seeds),
            "loss_rate": config.loss_rate,
        },
        "clean_runtime": clean_runtime,
        "runs": runs,
        "messaging_soak": soaks,
        "aggregate": {
            "all_invariants_hold": all_hold,
            "total_recoveries": sum(r["recoveries"] for r in runs),
            "total_failures_detected": sum(
                r["failures_detected"] for r in runs
            ),
            "max_recovery_lag": max(
                (r["max_recovery_lag"] for r in runs), default=0.0
            ),
            "mean_overhead_pct": sum(r["overhead_pct"] for r in runs)
            / len(runs),
        },
    }


def render_chaos(result: dict) -> str:
    """Human-readable text rendering (the CLI's default output)."""
    cfg = result["config"]
    agg = result["aggregate"]
    lines = ["== Pragma chaos sweep =="]
    lines.append(
        f"scenario: {result['scenario']} | {cfg['num_procs']} procs | "
        f"{cfg['num_coarse_steps']} coarse steps | mtbf {cfg['mtbf']:.0f}s | "
        f"mttr {cfg['mttr']:.0f}s | seeds {cfg['seeds']}"
    )
    lines.append(f"clean runtime: {result['clean_runtime']:.1f} s")
    lines.append("-- fault-tolerant replays --")
    for r in result["runs"]:
        inv = r["invariants"]
        status = "OK " if all(inv.values()) else "FAIL"
        lines.append(
            f"  seed {r['seed']}: [{status}] {r['executed_steps']}/"
            f"{r['planned_steps']} steps | {r['recoveries']} recoveries | "
            f"lag {r['max_recovery_lag']:.2f}s (bound "
            f"{r['recovery_lag_bound']:.1f}s) | overhead "
            f"{r['overhead_pct']:+.1f}%"
        )
    if result["messaging_soak"]:
        lines.append("-- lossy-link agent soak --")
        for s in result["messaging_soak"]:
            status = "OK " if s["completed"] else "FAIL"
            lines.append(
                f"  seed {s['seed']}: [{status}] delivered {s['delivered']} | "
                f"retries {s['retries']} | dead letters {s['dead_letters']} | "
                f"migrations {s['migrations']}"
            )
    lines.append(
        f"aggregate: invariants "
        f"{'HOLD' if agg['all_invariants_hold'] else 'VIOLATED'} | "
        f"{agg['total_recoveries']} recoveries | max lag "
        f"{agg['max_recovery_lag']:.2f}s | mean overhead "
        f"{agg['mean_overhead_pct']:+.1f}%"
    )
    return "\n".join(lines)


# -- chaos matrix: fault type × intensity ------------------------------------------


@dataclass(frozen=True, slots=True)
class MatrixConfig:
    """Knobs for the gray-failure chaos matrix."""

    num_procs: int = 8
    #: coarse steps per replay cell (small: the matrix runs many cells)
    num_coarse_steps: int = 48
    fault_types: tuple[str, ...] = FAULT_TYPES
    intensities: tuple[str, ...] = INTENSITIES
    seed: int = 0
    #: extra misses a suspect node must accrue before eviction in the
    #: flapping cells (the hysteresis under test)
    hysteresis_polls: int = 3

    def __post_init__(self) -> None:
        if self.num_procs < 2:
            raise ValueError(f"num_procs must be >= 2, got {self.num_procs}")
        if self.num_coarse_steps < 1:
            raise ValueError(
                f"num_coarse_steps must be >= 1, got {self.num_coarse_steps}"
            )
        unknown = set(self.fault_types) - set(FAULT_TYPES)
        if unknown:
            raise ValueError(f"unknown fault types: {sorted(unknown)}")
        unknown = set(self.intensities) - set(INTENSITIES)
        if unknown:
            raise ValueError(f"unknown intensities: {sorted(unknown)}")
        if not self.fault_types or not self.intensities:
            raise ValueError("need at least one fault type and intensity")
        if self.hysteresis_polls < 1:
            raise ValueError(
                f"hysteresis_polls must be >= 1, got {self.hysteresis_polls}"
            )


def _run_cell_sim(config: MatrixConfig, trace, selector, make_cluster,
                  mutate_cluster, ft: FaultTolerance) -> tuple[dict, "object"]:
    """One fault-tolerant replay; returns (base metrics, collect window)."""
    from repro.execsim import ExecutionSimulator

    cluster = make_cluster()
    mutate_cluster(cluster)
    with obs.collect() as window:
        res = ExecutionSimulator(cluster, options=SimulatorOptions(fault_tolerance=ft)).run(
            trace, selector
        )
    planned = trace.meta["num_coarse_steps"]
    executed = sum(r.coarse_steps for r in res.records)
    owners_live = all(set(r.owners) <= set(r.live_procs) for r in res.records)
    return (
        {
            "planned_steps": planned,
            "executed_steps": executed,
            "recoveries": res.num_recoveries,
            "runtime": res.total_runtime,
            "recovery_time": res.total_recovery_time,
            "no_work_lost": executed == planned,
            "owners_live": owners_live,
            "result": res,
        },
        window,
    )


def _cell_crash(config: MatrixConfig, intensity: str, trace, selector,
                make_cluster, clean_runtime: float) -> dict:
    """Fail-stop crashes: detected, evicted, rolled back, recovered."""
    from repro.gridsys import FailureEvent

    duration = max(10.0, 0.15 * clean_runtime)
    if intensity == "low":
        outages = [FailureEvent(1, 0.35 * clean_runtime,
                                0.35 * clean_runtime + duration)]
    else:
        outages = [
            FailureEvent(n, frac * clean_runtime,
                         frac * clean_runtime + duration)
            for n, frac in ((1, 0.25), (3, 0.5), (5, 0.7))
        ]

    def mutate(cluster):
        cluster.failures.events.extend(outages)

    base, _ = _run_cell_sim(
        config, trace, selector, make_cluster, mutate, FaultTolerance()
    )
    res = base.pop("result")
    return {
        "fault": "crash",
        "intensity": intensity,
        "metrics": {**base, "injected_outages": len(outages)},
        "invariants": {
            "no_work_lost": base["no_work_lost"],
            "owners_live": base["owners_live"],
            "recovered": res.num_recoveries >= 1,
            "bounded_rollback": res.num_recoveries <= len(outages),
        },
    }


def _cell_degraded(config: MatrixConfig, intensity: str, trace, selector,
                   make_cluster, clean_runtime: float) -> dict:
    """Gray slowness: the node is down-weighted, never evacuated."""
    from repro.gridsys import DegradedWindow

    # The window spans the whole (slowed) run: regrid boundaries are where
    # partitions are recomputed, and early intervals dominate the quickstart
    # runtime, so a mid-run window could fall between boundaries entirely.
    t0, t1 = 0.05 * clean_runtime, 20.0 * clean_runtime
    if intensity == "low":
        windows = [DegradedWindow(2, t0, t1, capacity_factor=0.5)]
    else:
        windows = [
            DegradedWindow(2, t0, t1, capacity_factor=0.25),
            DegradedWindow(4, t0, t1, capacity_factor=0.25),
        ]

    def mutate(cluster):
        for w in windows:
            cluster.failures.add_degraded(w)

    base, window = _run_cell_sim(
        config, trace, selector, make_cluster, mutate, FaultTolerance()
    )
    res = base.pop("result")
    downweights = window.registry.counter_value(
        "resilience.degraded_downweights"
    )
    degraded_nodes = {w.node_id for w in windows}
    owners_union: set[int] = set()
    for r in res.records:
        owners_union |= set(r.owners)
    return {
        "fault": "degraded",
        "intensity": intensity,
        "metrics": {
            **base,
            "degraded_nodes": sorted(degraded_nodes),
            "downweighted_partitions": downweights,
        },
        "invariants": {
            "no_work_lost": base["no_work_lost"],
            "owners_live": base["owners_live"],
            # Proportional response: the capacity-weighted path engaged...
            "downweighted": downweights >= 1,
            # ...but degraded is not dead — no rollback, no evacuation.
            "never_evacuated": res.num_recoveries == 0
            and degraded_nodes <= owners_union,
        },
    }


def _cell_flapping(config: MatrixConfig, intensity: str, trace, selector,
                   make_cluster, clean_runtime: float) -> dict:
    """Flapping node under eviction hysteresis: rollbacks stay bounded."""
    from repro.gridsys import FlappingNode

    detector = DetectorConfig(
        eviction_hysteresis_polls=config.hysteresis_polls
    )
    ft = FaultTolerance(detector=detector)
    # Low: flaps shorter than the eviction latency — every one must be
    # absorbed as a stall.  High: flaps outlast the hysteresis — each may
    # evict, but never more than once per flap.
    down_time = (
        0.6 * detector.eviction_latency
        if intensity == "low"
        else 1.5 * detector.eviction_latency
    )
    t0, t1 = 0.2 * clean_runtime, 0.8 * clean_runtime
    period = max((t1 - t0) / 4.0, 3.0 * down_time)
    spec = FlappingNode(3, t0, t1, period=period, down_time=down_time)
    flaps = spec.events()
    qualifying = sum(
        1 for e in flaps if e.duration >= detector.eviction_latency
    )

    def mutate(cluster):
        cluster.failures.add_flapping(spec)

    base, window = _run_cell_sim(
        config, trace, selector, make_cluster, mutate, ft
    )
    res = base.pop("result")
    suppressed = window.registry.counter_value("resilience.flap_suppressed")
    invariants = {
        "no_work_lost": base["no_work_lost"],
        "owners_live": base["owners_live"],
        # The hysteresis bound: one rollback per flap that outlasted it,
        # and zero for flaps that didn't.
        "bounded_rollback": res.num_recoveries <= qualifying,
    }
    if intensity == "low":
        invariants["flaps_suppressed"] = suppressed >= 1
    return {
        "fault": "flapping",
        "intensity": intensity,
        "metrics": {
            **base,
            "flaps": len(flaps),
            "qualifying_flaps": qualifying,
            "flap_suppressed": suppressed,
            "eviction_latency": detector.eviction_latency,
        },
        "invariants": invariants,
    }


def _cell_partition(config: MatrixConfig, intensity: str) -> dict:
    """Network partition at the message center: severed sends dead-letter,
    duplicate deliveries are suppressed by per-port dedup."""
    from repro.agents import DeliveryPolicy, MessageCenter
    from repro.agents.messages import Message
    from repro.gridsys import NetworkPartition

    n = 4 if intensity == "low" else 8
    dup_rate = 0.3 if intensity == "low" else 0.6
    policy = DeliveryPolicy(duplicate_rate=dup_rate, seed=config.seed)
    mc = MessageCenter(policy)
    for i in range(n):
        mc.register(f"p{i}")
        mc.bind_port(f"p{i}", i)
    half = n // 2
    cut = NetworkPartition(
        t_start=10.0,
        t_end=20.0,
        groups=(tuple(range(half)), tuple(range(half, n))),
    )
    mc.inject_partition(cut)

    group_of = {i: (0 if i < half else 1) for i in range(n)}
    expected_cut = 0
    healed_ok = True
    with obs.collect() as window:
        for t in (5.0, 15.0, 25.0):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    crosses = cut.active(t) and group_of[i] != group_of[j]
                    delivered = mc.send(
                        Message(sender=f"p{i}", dest=f"p{j}", topic="tick",
                                payload={"t": t}, time=t)
                    )
                    if crosses:
                        expected_cut += 1
                        if delivered:
                            healed_ok = False
                    elif not delivered:
                        healed_ok = False
        reg = window.registry
        partitioned = reg.counter_value("mc.dead_letters", reason="partitioned")
        injected = reg.counter_value("mc.duplicates_injected")
        suppressed = reg.counter_value("mc.duplicates_suppressed")

    # No message sent across the cut during the window may sit in any
    # mailbox, and every delivered message must be unique per port.
    leaked = 0
    dup_in_box = 0
    for i in range(n):
        seen: set[int] = set()
        for m in mc.drain(f"p{i}"):
            if m.seq in seen:
                dup_in_box += 1
            seen.add(m.seq)
            src = int(m.sender[1:])
            if cut.severed(src, i, m.time):
                leaked += 1
    return {
        "fault": "partition",
        "intensity": intensity,
        "metrics": {
            "ports": n,
            "severed_sends": expected_cut,
            "partitioned_dead_letters": partitioned,
            "duplicates_injected": injected,
            "duplicates_suppressed": suppressed,
        },
        "invariants": {
            "severed_dead_lettered": partitioned == expected_cut > 0,
            "no_cross_cut_delivery": leaked == 0 and healed_ok,
            "duplicates_suppressed": injected == suppressed and dup_in_box == 0,
        },
    }


def _cell_checkpoint(config: MatrixConfig, intensity: str, trace) -> dict:
    """Corrupted durable checkpoints: restore walks back to a valid one."""
    import tempfile
    from pathlib import Path

    from repro.resilience.durable import (
        DurableCheckpointStore,
        corrupt_checkpoint,
    )

    snaps = []
    for snap in trace:
        snaps.append(snap)
        if len(snaps) == 3:
            break
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as tmp:
        store = DurableCheckpointStore(Path(tmp), keep=len(snaps))
        for i, snap in enumerate(snaps):
            store.save(snap.step, float(i), snap.hierarchy)
        paths = store.record_paths()
        corrupt_checkpoint(paths[-1], mode="torn")
        corrupted = 1
        if intensity == "high":
            corrupt_checkpoint(paths[-2], mode="bitflip", seed=config.seed)
            corrupted = 2
        expected = snaps[len(snaps) - 1 - corrupted]
        with obs.collect() as window:
            ck, _ = store.restore()
            counted = window.registry.sum_counters(
                "resilience.checkpoint_corrupt"
            )
    return {
        "fault": "checkpoint",
        "intensity": intensity,
        "metrics": {
            "records": len(paths),
            "corrupted": corrupted,
            "restored_step": ck.step,
            "corruption_counted": counted,
        },
        "invariants": {
            "restored_prior_valid": ck.step == expected.step,
            "corruption_counted": counted == corrupted,
            "payload_intact": ck.hierarchy is not None
            and ck.hierarchy.total_cells == ck.num_cells,
        },
    }


def run_chaos_matrix(config: MatrixConfig | None = None) -> dict:
    """Run the fault-matrix sweep; returns the matrix document.

    Every cell is deterministic (seeded faults, deterministic partition
    timings), so the document can be committed and gated with
    ``python -m repro benchdiff`` like any other benchmark snapshot.
    """
    config = config or MatrixConfig()
    shim = ChaosConfig(
        num_procs=config.num_procs,
        num_coarse_steps=config.num_coarse_steps,
        loss_rate=0.0,
    )
    trace, selector, make_cluster = _quickstart_pieces(shim)

    from repro.execsim import ExecutionSimulator

    cells: list[dict] = []
    clean = ExecutionSimulator(
        make_cluster(), options=SimulatorOptions(fault_tolerance=False)
    ).run(trace, selector)
    clean_runtime = clean.total_runtime
    for fault in config.fault_types:
        for intensity in config.intensities:
            if fault == "crash":
                cell = _cell_crash(config, intensity, trace, selector,
                                   make_cluster, clean_runtime)
            elif fault == "degraded":
                cell = _cell_degraded(config, intensity, trace, selector,
                                      make_cluster, clean_runtime)
            elif fault == "flapping":
                cell = _cell_flapping(config, intensity, trace, selector,
                                      make_cluster, clean_runtime)
            elif fault == "partition":
                cell = _cell_partition(config, intensity)
            else:
                cell = _cell_checkpoint(config, intensity, trace)
            cells.append(cell)

    all_hold = all(all(c["invariants"].values()) for c in cells)
    return {
        "scenario": "gray-failure-chaos-matrix",
        "config": {
            "num_procs": config.num_procs,
            "num_coarse_steps": config.num_coarse_steps,
            "fault_types": list(config.fault_types),
            "intensities": list(config.intensities),
            "seed": config.seed,
            "hysteresis_polls": config.hysteresis_polls,
        },
        "clean_runtime": clean_runtime,
        "cells": cells,
        "aggregate": {
            "all_invariants_hold": all_hold,
            "cells": len(cells),
            "cells_failed": sum(
                0 if all(c["invariants"].values()) else 1 for c in cells
            ),
        },
    }


def render_chaos_matrix(result: dict) -> str:
    """Human-readable rendering of the fault matrix."""
    agg = result["aggregate"]
    cfg = result["config"]
    lines = ["== Pragma gray-failure chaos matrix =="]
    lines.append(
        f"scenario: {result['scenario']} | {cfg['num_procs']} procs | "
        f"{cfg['num_coarse_steps']} coarse steps | "
        f"hysteresis {cfg['hysteresis_polls']} polls"
    )
    lines.append(f"clean runtime: {result['clean_runtime']:.1f} s")
    for c in result["cells"]:
        inv = c["invariants"]
        status = "OK " if all(inv.values()) else "FAIL"
        failed = [k for k, v in inv.items() if not v]
        detail = "" if not failed else f" | violated: {', '.join(failed)}"
        lines.append(
            f"  {c['fault']:<10s} x {c['intensity']:<4s} [{status}] "
            f"{', '.join(sorted(inv))}{detail}"
        )
    lines.append(
        f"aggregate: {agg['cells'] - agg['cells_failed']}/{agg['cells']} "
        f"cells hold — invariants "
        f"{'HOLD' if agg['all_invariants_hold'] else 'VIOLATED'}"
    )
    return "\n".join(lines)
