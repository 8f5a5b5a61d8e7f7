"""Run reports: one JSON/text document summarizing an observed pipeline run.

:func:`collect_run_report` drives the quickstart scenario (reduced RM3D,
adaptive vs static partitioning, plus a short event-driven online run so
the CATALINA message center sees real traffic) inside an observability
collection window, then folds the window into a :class:`RunReport`:
per-phase simulated seconds (compute / comm / regrid / partition /
checkpoint / recovery) summed over the timeline's per-interval records,
partitioner-switch counts, message-center counters, monitoring counters,
and a wall-clock span profile.  ``python -m repro report`` renders it;
``--json`` exports the same document for trend tracking (every future
perf PR has a baseline to beat).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.obs.anomaly import detect_alerts

__all__ = ["RunReport", "collect_run_report", "quickstart_scenario"]

#: simulated-seconds phase -> its seconds in one interval's StepRecord
#: (``regrid`` is migration plus bookkeeping; ``partition`` the rest of
#: ``regrid_time``)
PHASES = {
    "compute": lambda r: r.compute_time,
    "comm": lambda r: r.comm_time,
    "regrid": lambda r: r.regrid_time - r.partition_time,
    "partition": lambda r: r.partition_time,
    "checkpoint": lambda r: r.checkpoint_time,
    "recovery": lambda r: r.recovery_time,
}


@dataclass(slots=True)
class RunReport:
    """Structured outcome of one observed pipeline run."""

    scenario: dict
    phases: dict
    wall: dict
    partitioning: dict
    message_center: dict
    monitoring: dict
    runtimes: dict
    metrics: dict
    #: :meth:`TimelineRecorder.summary` of the collection window
    timeline: dict
    #: EWMA z-score anomalies over the timeline series (``obs.alerts``)
    alerts: list

    def to_dict(self) -> dict:
        """The full report as a JSON-ready document."""
        return {
            "scenario": self.scenario,
            "phases": self.phases,
            "wall": self.wall,
            "partitioning": self.partitioning,
            "message_center": self.message_center,
            "monitoring": self.monitoring,
            "runtimes": self.runtimes,
            "metrics": self.metrics,
            "timeline": self.timeline,
            "obs": {"alerts": self.alerts},
        }

    def render(self) -> str:
        """Human-readable text rendering (the CLI's default output)."""
        lines = ["== Pragma pipeline run report =="]
        sc = self.scenario
        lines.append(
            f"scenario: RM3D {sc['shape']} | {sc['num_coarse_steps']} coarse "
            f"steps | {sc['num_procs']} procs | online steps "
            f"{sc['online_steps']}"
        )
        lines.append("-- simulated seconds by phase --")
        total = sum(self.phases.values()) or 1.0
        for phase in PHASES:
            v = self.phases.get(phase, 0.0)
            lines.append(f"  {phase:<10} {v:12.3f} s  ({100.0 * v / total:5.1f}%)")
        lines.append("-- wall-clock span profile (top 8) --")
        top = sorted(
            self.wall["totals_by_path"].items(), key=lambda kv: -kv[1]
        )[:8]
        for path, secs in top:
            n = self.wall["counts_by_path"].get(path, 0)
            lines.append(f"  {path:<44} {secs:9.4f} s  x{n}")
        p = self.partitioning
        lines.append("-- meta-partitioner --")
        lines.append(
            f"  switches {p['switches']:.0f} | policy hits "
            f"{p['policy_hits']:.0f} | misses {p['policy_misses']:.0f} | "
            f"hysteresis holds {p['hysteresis_holds']:.0f}"
        )
        lines.append(f"  octant classifications: {p['classifications']}")
        lines.append(f"  partitioner usage (adaptive): {p['usage']}")
        m = self.message_center
        lines.append("-- message center --")
        lines.append(
            f"  sends {m['sends']:.0f} | publishes {m['publishes']:.0f} | "
            f"mailbox high-water {m['mailbox_high_water']:.0f}"
        )
        lines.append(f"  fan-out by topic: {m['fanout_by_topic']}")
        mo = self.monitoring
        lines.append("-- resource monitor --")
        lines.append(
            f"  samples {mo['samples']:.0f} | sweeps {mo['sweeps']:.0f} | "
            f"forecaster updates {mo['forecast_updates']:.0f} | "
            f"selection switches {mo['forecast_selection_switches']:.0f}"
        )
        r = self.runtimes
        lines.append("-- simulated runtimes --")
        lines.append(f"  adaptive  {r['adaptive']:10.1f} s")
        for name, secs in r["static"].items():
            lines.append(f"  {name:<9} {secs:10.1f} s")
        lines.append(
            f"  improvement over worst static: "
            f"{r['improvement_over_worst_pct']:.1f}%"
        )
        tl = self.timeline
        lines.append("-- timeline --")
        lines.append(
            f"  samples {tl.get('num_samples', 0)} | events "
            f"{tl.get('num_events', 0)} | by kind "
            f"{tl.get('events_by_kind', {})}"
        )
        for name in ("step_cost_s", "imbalance_pct"):
            st = tl.get("series", {}).get(name)
            if st:
                lines.append(
                    f"  {name:<20} mean {st['mean']:10.3f} | p50 "
                    f"{st['p50']:10.3f} | p95 {st['p95']:10.3f} | p99 "
                    f"{st['p99']:10.3f}"
                )
        lines.append(f"-- anomaly alerts ({len(self.alerts)}) --")
        for a in self.alerts[:8]:
            lines.append(
                f"  {a['series']:<20} idx {a['index']:>4} value "
                f"{a['value']:10.3f}  z={a['zscore']:+.1f}"
            )
        return "\n".join(lines)


def quickstart_scenario():
    """The reduced RM3D scenario of ``examples/quickstart.py``.

    Returns ``(app, policy, runtime)`` sized for a laptop: 64x16x16 base
    grid, 16 processors.
    """
    from repro.amr.regrid import RegridPolicy
    from repro.apps import RM3D, RM3DConfig
    from repro.core.pragma import PragmaRuntime
    from repro.gridsys import sp2_blue_horizon

    config = RM3DConfig(
        shape=(64, 16, 16),
        interface_x=20.0,
        shock_entry_snapshot=6.0,
        reshock_snapshot=30.0,
        num_seed_clumps=5,
        num_mixing_structures=10,
    )
    policy = RegridPolicy(ratio=2, thresholds=(0.2, 0.45, 0.7),
                          regrid_interval=4)
    runtime = PragmaRuntime(cluster=sp2_blue_horizon(16), num_procs=16)
    return RM3D(config), policy, runtime


def collect_run_report(
    *,
    app=None,
    policy=None,
    runtime=None,
    num_coarse_steps: int = 160,
    compare_with: tuple[str, ...] = ("G-MISP+SP", "SFC"),
    online_steps: int = 48,
    include_spans: bool = False,
) -> RunReport:
    """Run the scenario under a collection window and build the report.

    Defaults to the quickstart scenario; pass ``app``/``policy``/
    ``runtime`` together to observe a custom one.  ``online_steps`` drives
    a short :class:`~repro.core.online.OnlineAdaptiveRuntime` run so the
    message-center counters reflect real agent traffic (0 skips it).
    Partition time is modeled, so the simulated-seconds sections are the
    same on every machine — what the benchdiff gate needs.
    """
    from repro.core.online import OnlineAdaptiveRuntime

    if app is None or policy is None or runtime is None:
        if (app, policy, runtime) != (None, None, None):
            raise ValueError(
                "pass app, policy and runtime together, or none of them"
            )
        app, policy, runtime = quickstart_scenario()

    with obs.collect() as window:
        capacities = runtime.capacities()
        trace = runtime.characterize(app, policy, num_coarse_steps)
        adaptive_report = runtime.run_adaptive(
            trace, compare_with=compare_with
        )
        if online_steps > 0:
            online = OnlineAdaptiveRuntime(
                runtime.cluster, num_procs=runtime.num_procs
            )
            online.run(app, policy, online_steps)

    reg = window.registry
    tracer = window.tracer
    snap = reg.snapshot()
    records = window.timeline.samples
    timeline = window.timeline.summary()

    def by_label(name: str, label: str) -> dict[str, float]:
        rows = snap["counters"].get(name, [])
        return {row["labels"][label]: row["value"] for row in rows}

    mailbox_rows = snap["gauges"].get("mc.mailbox_hwm", [])
    wall = {
        "totals_by_path": tracer.totals_by_path(),
        "counts_by_path": tracer.counts_by_path(),
    }
    if include_spans:
        wall["spans"] = tracer.to_dicts()

    report = RunReport(
        scenario={
            "name": "quickstart-rm3d",
            "shape": list(app.config.shape),
            "num_coarse_steps": num_coarse_steps,
            "num_procs": runtime.num_procs,
            "online_steps": online_steps,
            "compare_with": list(compare_with),
            "num_snapshots": len(trace),
            "relative_capacity_spread": float(
                capacities.max() - capacities.min()
            ),
        },
        phases={
            phase: sum(share(r) for r in records)
            for phase, share in PHASES.items()
        },
        wall=wall,
        partitioning={
            "switches": reg.counter_value("meta.switches"),
            "classifications": by_label("meta.classifications", "octant"),
            "policy_hits": reg.counter_value(
                "meta.policy_lookups", result="hit"
            ),
            "policy_misses": reg.counter_value(
                "meta.policy_lookups", result="miss"
            ),
            "hysteresis_holds": reg.counter_value("meta.hysteresis_holds"),
            "usage": adaptive_report.adaptive.partitioner_usage(),
            "intervals": timeline["num_samples"],
            "coarse_steps": timeline["coarse_steps"],
        },
        message_center={
            "sends": reg.counter_value("mc.sends"),
            "publishes": reg.counter_value("mc.publishes"),
            "fanout_by_topic": by_label("mc.fanout", "topic"),
            "mailbox_high_water": max(
                (row["value"] for row in mailbox_rows), default=0.0
            ),
        },
        monitoring={
            "samples": reg.counter_value("monitor.samples"),
            "sweeps": reg.counter_value("monitor.sweeps"),
            "forecast_updates": reg.counter_value("forecast.updates"),
            "forecast_selection_switches": reg.sum_counters(
                "forecast.selection_switches"
            ),
        },
        runtimes={
            "adaptive": adaptive_report.adaptive.total_runtime,
            "static": {
                name: res.total_runtime
                for name, res in adaptive_report.static.items()
            },
            "improvement_over_worst_pct":
                adaptive_report.improvement_over_worst_pct,
            "mean_imbalance_pct": adaptive_report.adaptive.mean_imbalance_pct,
        },
        metrics=snap,
        timeline=timeline,
        alerts=[
            a.as_dict() for a in detect_alerts(window.timeline)
        ],
    )
    return report
