"""The resource-monitor facade: sensors + streams + forecasters per node."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.gridsys.cluster import Cluster
from repro.monitoring.forecasting import ForecasterEnsemble, default_ensemble
from repro.monitoring.sensors import (
    BandwidthSensor,
    CpuAvailabilitySensor,
    MemorySensor,
    SystemSensor,
)
from repro.monitoring.streams import MeasurementStream
from repro.util.rng import ensure_rng, spawn_rng

__all__ = ["NodeState", "ResourceMonitor"]

ATTRIBUTES = ("cpu", "memory", "bandwidth")


@dataclass(frozen=True, slots=True)
class NodeState:
    """Most recent characterization of one node."""

    node_id: int
    cpu: float
    memory: float
    bandwidth: float

    def as_dict(self) -> dict[str, float]:
        """Attribute name → value."""
        return {"cpu": self.cpu, "memory": self.memory, "bandwidth": self.bandwidth}


class ResourceMonitor:
    """NWS-like monitoring of a simulated cluster.

    One sensor + measurement stream + forecaster ensemble per
    (node, attribute).  Call :meth:`sample` periodically with advancing
    simulation time; query current values with :meth:`current` and
    one-step-ahead forecasts with :meth:`forecast`.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        noise: float = 0.02,
        seed: int = 0,
        history: int = 512,
    ) -> None:
        self.cluster = cluster
        rngs = spawn_rng(ensure_rng(seed), cluster.num_nodes * len(ATTRIBUTES))
        self._sensors: dict[tuple[int, str], SystemSensor] = {}
        self._streams: dict[tuple[int, str], MeasurementStream] = {}
        self._forecasters: dict[tuple[int, str], ForecasterEnsemble] = {}
        sensor_cls = {
            "cpu": CpuAvailabilitySensor,
            "memory": MemorySensor,
            "bandwidth": BandwidthSensor,
        }
        i = 0
        for node in range(cluster.num_nodes):
            for attr in ATTRIBUTES:
                key = (node, attr)
                self._sensors[key] = sensor_cls[attr](
                    cluster, node, noise=noise, seed=rngs[i]
                )
                self._streams[key] = MeasurementStream(
                    name=f"node{node}.{attr}", capacity=history
                )
                self._forecasters[key] = ForecasterEnsemble(default_ensemble())
                i += 1

    def sample(self, t: float) -> None:
        """Measure every (node, attribute) at simulation time ``t``.

        With observability enabled the sweep also aggregates the
        forecaster ensembles' own postcast errors on the CPU streams —
        how far the monitor's forecasts of this sweep's values were off —
        into the ``monitor.forecast_abs_error`` histogram and a
        ``forecast-sweep`` timeline event.
        """
        cpu_errors: list[float] = []
        for key, sensor in self._sensors.items():
            v = sensor.measure(t)
            self._streams[key].append(t, v)
            err = self._forecasters[key].update(v)
            if err is not None and key[1] == "cpu":
                cpu_errors.append(err)
        obs.counter("monitor.samples").inc(len(self._sensors))
        obs.counter("monitor.sweeps").inc()
        if cpu_errors:
            mean_err = sum(cpu_errors) / len(cpu_errors)
            obs.histogram("monitor.forecast_abs_error").observe(mean_err)
            w = obs.current()
            if w is not None:
                w.timeline.event(
                    "forecast-sweep", t=t, mean_cpu_abs_error=mean_err,
                    nodes=len(cpu_errors),
                )

    def sample_range(self, t0: float, t1: float, period: float = 1.0) -> None:
        """Sample periodically over [t0, t1) with the given period."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        t = t0
        while t < t1:
            self.sample(t)
            t += period

    def current(self, node_id: int) -> NodeState:
        """Latest measured state of ``node_id``."""
        vals = {attr: self._streams[(node_id, attr)].last for attr in ATTRIBUTES}
        return NodeState(node_id=node_id, **vals)

    def forecast(self, node_id: int, attribute: str) -> float:
        """One-step-ahead forecast for (node, attribute)."""
        if attribute not in ATTRIBUTES:
            raise ValueError(
                f"unknown attribute {attribute!r}; choose from {ATTRIBUTES}"
            )
        return self._forecasters[(node_id, attribute)].predict()

    def forecast_vector(self, attribute: str) -> np.ndarray:
        """Forecasts of one attribute across all nodes."""
        return np.array(
            [self.forecast(n, attribute) for n in range(self.cluster.num_nodes)]
        )

    def stream(self, node_id: int, attribute: str) -> MeasurementStream:
        """Raw measurement stream (inspection / tests)."""
        return self._streams[(node_id, attribute)]

    def ensemble(self, node_id: int, attribute: str) -> ForecasterEnsemble:
        """Forecaster ensemble (inspection / ablation benches)."""
        return self._forecasters[(node_id, attribute)]
