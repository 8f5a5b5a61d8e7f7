"""The five-component PAC quality metric (Section 4.1).

"The proposed metric for characterizing the quality of a PAC for the
adaptive SAMR meta-partitioner include Communication requirements, Load
imbalance, Amount of data migration, Partitioning time, and Partitioning
induced overheads."

The components conflict (minimizing communication and load imbalance
together is NP-hard), so no single partitioner optimizes all five; the
metric exists to expose each partitioner's trade-offs to the policy base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.partitioners.base import CutRecord, Partition
from repro.util.stats import max_load_imbalance_pct

__all__ = ["PACMetrics", "evaluate_partition"]


@dataclass(frozen=True, slots=True)
class PACMetrics:
    """Quality of one partition (lower is better on every component)."""

    load_imbalance_pct: float   # 100 * (max - mean) / mean over proc loads
    comm_volume: float          # load-weighted inter-processor face area
    data_migration: float       # load that changed owner since last partition
    partition_time: float       # seconds spent computing the partition
    overhead: float             # ownership fragments (patch splits forced)

    def as_dict(self) -> dict[str, float]:
        """Component name → value."""
        return {
            "load_imbalance_pct": self.load_imbalance_pct,
            "comm_volume": self.comm_volume,
            "data_migration": self.data_migration,
            "partition_time": self.partition_time,
            "overhead": self.overhead,
        }


def evaluate_partition(
    partition: Partition, previous: Partition | None = None
) -> PACMetrics:
    """Score a partition on the five PAC components.

    ``previous`` (the partition in force before this regrid) enables the
    data-migration component; without it migration is reported as 0.
    """
    imbalance = max_load_imbalance_pct(partition.proc_loads())
    comm = _comm_volume(partition.cut())
    migration = _migration(partition, previous)
    return PACMetrics(
        load_imbalance_pct=imbalance,
        comm_volume=comm,
        data_migration=migration,
        partition_time=partition.partition_time,
        overhead=float(partition.rect_fragments()),
    )


def _comm_volume(cut: CutRecord) -> float:
    """Ghost-exchange volume across processor boundaries.

    For every face between units with different owners, the exchanged data
    is the face area (in base cells) scaled by the mean *load density* of
    the two units: refined columns carry proportionally more ghost data
    (each refined level adds a layer of ghost cells at higher resolution).
    Reads the partition's cut record; per pair the float operations are
    those of the all-pairs loop in ``tests/reference/ref_metrics.py``, so
    the result is bit-identical to it.
    """
    if cut.face.size == 0:
        return 0.0
    return float((cut.face * (0.5 * cut.density)).sum())


def _migration(partition: Partition, previous: Partition | None) -> float:
    """Load volume whose owner changed relative to ``previous``.

    Owner lattices are compared cell-block-wise; if the unit lattice
    changed shape (different granularity after a policy switch), the
    previous owners are resampled with nearest-neighbor indexing.
    """
    if previous is None:
        return 0.0
    cur = partition.owner_lattice()
    prev = previous.owner_lattice()
    if prev.shape != cur.shape:
        prev = _resample_nearest(prev, cur.shape)
    moved = cur != prev
    # Unit loads are stored in curve order; scatter to lattice order.
    lat = np.empty(len(partition.units))
    lat[partition.units.lattice_index] = partition.units.loads
    loads = lat.reshape(cur.shape)
    return float(loads[moved].sum())


def _resample_nearest(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Nearest-neighbor resample of an integer lattice to a new shape."""
    idx = [
        np.minimum(
            (np.arange(shape[a]) * arr.shape[a] / shape[a]).astype(int),
            arr.shape[a] - 1,
        )
        for a in range(3)
    ]
    return arr[np.ix_(idx[0], idx[1], idx[2])]
