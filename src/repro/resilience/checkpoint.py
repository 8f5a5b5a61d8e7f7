"""Coordinated checkpoint/restart of the SAMR grid hierarchy.

The Cactus-Worm loop — detect, checkpoint, reconfigure, resume — needs a
cost model for the "checkpoint" and "resume" legs.  Checkpoints are
*coordinated*: taken at regrid boundaries, where every processor is at the
same coarse step and the hierarchy is globally consistent, so no message
logging or channel flushing is required.  A restart rolls back to the most
recent checkpoint; all coarse steps executed since are re-run (their cost
is accounted as rollback overhead, never as committed work).

:class:`CheckpointCostModel` translates hierarchy size into seconds;
:class:`CheckpointStore` keeps the last ``keep`` checkpoints and charges
save/restore costs through :mod:`repro.obs`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro import obs
from repro.amr.hierarchy import GridHierarchy

__all__ = ["CheckpointCostModel", "Checkpoint", "CheckpointStore"]


@dataclass(frozen=True, slots=True)
class CheckpointCostModel:
    """Constants translating hierarchy size into checkpoint/restore seconds."""

    #: bytes of solver state serialized per hierarchy cell
    bytes_per_cell: float = 8.0
    #: aggregate bytes/second to stable storage when saving
    write_bandwidth: float = 2.0e8
    #: aggregate bytes/second from stable storage when restoring
    read_bandwidth: float = 4.0e8
    #: fixed seconds per coordinated checkpoint (barrier + metadata commit)
    coordination_seconds: float = 0.02

    def __post_init__(self) -> None:
        if self.bytes_per_cell < 0:
            raise ValueError(f"bytes_per_cell must be >= 0, got {self.bytes_per_cell}")
        if self.write_bandwidth <= 0 or self.read_bandwidth <= 0:
            raise ValueError("write/read bandwidth must be positive")
        if self.coordination_seconds < 0:
            raise ValueError(
                f"coordination_seconds must be >= 0, got {self.coordination_seconds}"
            )

    def checkpoint_seconds(self, num_cells: int) -> float:
        """Cost of one coordinated save of a ``num_cells`` hierarchy."""
        return (
            self.coordination_seconds
            + num_cells * self.bytes_per_cell / self.write_bandwidth
        )

    def restore_seconds(self, num_cells: int) -> float:
        """Cost of restoring a ``num_cells`` checkpoint onto survivors."""
        return (
            self.coordination_seconds
            + num_cells * self.bytes_per_cell / self.read_bandwidth
        )


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """One coordinated checkpoint: where, when, and how big."""

    step: int
    sim_time: float
    num_cells: int
    hierarchy: GridHierarchy | None = None


class CheckpointStore:
    """Bounded store of the most recent coordinated checkpoints."""

    def __init__(
        self,
        cost_model: CheckpointCostModel | None = None,
        *,
        keep: int = 2,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.cost = cost_model or CheckpointCostModel()
        self._checkpoints: deque[Checkpoint] = deque(maxlen=keep)
        self.saved = 0
        self.restored = 0

    def __len__(self) -> int:
        return len(self._checkpoints)

    @property
    def latest(self) -> Checkpoint | None:
        """Most recent checkpoint, or ``None`` before the first save."""
        return self._checkpoints[-1] if self._checkpoints else None

    def save(
        self, step: int, sim_time: float, hierarchy: GridHierarchy
    ) -> tuple[Checkpoint, float]:
        """Take a coordinated checkpoint; returns it and the seconds charged.

        The checkpoint *aliases* ``hierarchy``, so the caller must never
        mutate a hierarchy after saving it: a later restore would return
        post-failure state instead of the state at save time.  Trace
        replay never mutates a snapshot (the reuse cache only diffs
        successive hierarchies).
        """
        ck = Checkpoint(
            step=step,
            sim_time=sim_time,
            num_cells=hierarchy.total_cells,
            hierarchy=hierarchy,
        )
        self._checkpoints.append(ck)
        self.saved += 1
        seconds = self.cost.checkpoint_seconds(ck.num_cells)
        obs.counter("resilience.checkpoints").inc()
        obs.counter("resilience.checkpoint_seconds").inc(seconds)
        return ck, seconds

    def restore(self) -> tuple[Checkpoint, float]:
        """Roll back to the most recent checkpoint; returns it and the cost."""
        if not self._checkpoints:
            raise RuntimeError("no checkpoint to restore from")
        ck = self._checkpoints[-1]
        self.restored += 1
        seconds = self.cost.restore_seconds(ck.num_cells)
        obs.counter("resilience.restores").inc()
        obs.counter("resilience.restore_seconds").inc(seconds)
        return ck, seconds
