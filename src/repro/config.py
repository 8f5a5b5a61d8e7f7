"""Option bundles for the execution simulator and the serving runtime.

- :class:`SimulatorOptions` is the execution simulator's tuning bundle.
  ``ExecutionSimulator(cluster, options=SimulatorOptions(...))`` is the
  only way to pass them; the old per-keyword spellings are gone.  Fault
  tolerance is tuned by handing it a
  :class:`~repro.resilience.recovery.FaultTolerance`.
- :class:`LiveObsOptions` switches on the serving runtime's live
  telemetry plane (flight recorder, SLO tracker, snapshot exporter).

Both classes are part of the stable public surface (:mod:`repro.api`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["SimulatorOptions", "LiveObsOptions"]


@dataclass(frozen=True, slots=True)
class LiveObsOptions:
    """Knobs for the serving runtime's live telemetry plane.

    The default is disabled and zero-cost: the server gets no flight
    recorder, no SLO tracker and no exporter thread (the
    ``metrics``/``health`` wire verbs still answer — the ``serve.*``
    counter registry is part of the server itself, not of this layer).
    ``enabled=True`` turns on the flight recorder and the SLO tracker;
    ``snapshot_path`` additionally starts the periodic JSONL snapshot
    exporter.  See :mod:`repro.obs.live`.
    """

    #: master switch for the flight recorder + SLO tracker + exporter
    enabled: bool = False
    #: when set (and enabled), append one JSONL metrics snapshot here
    #: every ``snapshot_interval_s``
    snapshot_path: str | None = None
    #: seconds between periodic snapshots
    snapshot_interval_s: float = 5.0
    #: ring capacity of the flight recorder (last N serve events)
    flight_capacity: int = 256
    #: when set, the flight recorder dumps here on shutdown/crash
    flight_dump_path: str | None = None
    #: latency objective: at most ``slo_latency_budget`` of requests may
    #: take longer than this many seconds
    slo_latency_target_s: float = 60.0
    slo_latency_budget: float = 0.05
    #: shed objective: at most this fraction of admissions may be shed
    #: for load (queue-full / shutting-down)
    slo_shed_budget: float = 0.05
    #: sliding event-count windows for burn-rate alerting (short = fast
    #: signal, long = sustained signal; both must burn to alert)
    slo_short_window: int = 32
    slo_long_window: int = 256
    #: burn-rate (error rate / budget) that fires an alert
    slo_burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.snapshot_interval_s <= 0:
            raise ValueError(
                f"snapshot_interval_s must be > 0, "
                f"got {self.snapshot_interval_s}"
            )
        if self.flight_capacity < 1:
            raise ValueError(
                f"flight_capacity must be >= 1, got {self.flight_capacity}"
            )

    def build_slo_tracker(self):
        """A :class:`~repro.obs.live.SloTracker` with these objectives."""
        from repro.obs.live import SloTracker

        return SloTracker(
            latency_target_s=self.slo_latency_target_s,
            latency_budget=self.slo_latency_budget,
            shed_budget=self.slo_shed_budget,
            short_window=self.slo_short_window,
            long_window=self.slo_long_window,
            burn_threshold=self.slo_burn_threshold,
        )

    def build_flight_recorder(self, *, wall_clock=None):
        """A :class:`~repro.obs.live.FlightRecorder` (``None`` when
        disabled).

        ``wall_clock`` overrides the dump-header timestamp source — the
        serving runtime passes its own injected clock through, so a
        simulated run's flight dump carries virtual time.
        """
        from repro.obs.live import FlightRecorder

        if not self.enabled:
            return None
        return FlightRecorder(self.flight_capacity, wall_clock=wall_clock)


@dataclass(frozen=True, slots=True)
class SimulatorOptions:
    """Tuning bundle for :class:`~repro.execsim.simulator.ExecutionSimulator`.

    Collects what used to be a growing keyword list into one value:
    ``ExecutionSimulator(cluster, options=SimulatorOptions(num_procs=8))``.
    Field defaults match the simulator's historical keyword defaults, so
    ``SimulatorOptions()`` is behavior-identical to passing nothing.
    """

    #: processors to simulate (``None``: every node in the cluster)
    num_procs: int | None = None
    #: communication/compute cost model (``None``: the paper-fit default)
    cost_model: Any = None
    #: relative per-processor capacity weights for capacity-aware
    #: partitioning (``None``: homogeneous)
    capacities: Any = None
    #: multiplier on modeled repartitioning seconds
    partition_time_scale: float = 1.0
    #: ``None`` auto-enables recovery when the cluster carries failures;
    #: a :class:`~repro.resilience.recovery.FaultTolerance` tunes it;
    #: ``False`` disables recovery entirely
    fault_tolerance: Any = None
    #: reuse workload/unit arrays across regrid intervals (bit-identical
    #: to full recomputation; disable only to measure the benefit)
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.partition_time_scale < 0:
            raise ValueError(
                f"partition_time_scale must be >= 0, "
                f"got {self.partition_time_scale}"
            )
