"""The execution simulator's option bundle.

:class:`SimulatorOptions` is the execution simulator's tuning bundle.
``ExecutionSimulator(cluster, options=SimulatorOptions(...))`` is the
only way to pass them; the old per-keyword spellings are gone.  Fault
tolerance is tuned by handing it a
:class:`~repro.resilience.recovery.FaultTolerance`.  The class is part
of the stable public surface (:mod:`repro.api`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["SimulatorOptions"]


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
