"""Adaptation traces — the paper's grid-hierarchy "snap-shots".

Section 4.5: *"the adaptive behavior of the application was captured in an
adaptation trace generated using a single processor run.  The adaptation
trace contains snap-shots of the SAMR grid hierarchy at each regrid step."*

A :class:`Snapshot` is one such capture; an :class:`AdaptationTrace` is the
ordered sequence over a run, with JSON (de)serialization so traces can be
generated once and replayed through partitioners and the execution
simulator.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.amr.hierarchy import GridHierarchy
from repro.util.fileio import write_file

__all__ = ["Snapshot", "AdaptationTrace"]


@dataclass(slots=True)
class Snapshot:
    """One regrid step's grid hierarchy plus bookkeeping."""

    step: int
    hierarchy: GridHierarchy

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")

    @property
    def num_patches(self) -> int:
        """Patch count of the snapshot's hierarchy."""
        return self.hierarchy.num_patches

    @property
    def total_cells(self) -> int:
        """Total cells over all levels."""
        return self.hierarchy.total_cells

    @property
    def load(self) -> float:
        """Load of one coarse step of this hierarchy."""
        return self.hierarchy.load_per_coarse_step()

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {"step": self.step, "hierarchy": self.hierarchy.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "Snapshot":
        """Inverse of :meth:`to_dict`."""
        return cls(step=d["step"], hierarchy=GridHierarchy.from_dict(d["hierarchy"]))


@dataclass(slots=True)
class AdaptationTrace:
    """Ordered sequence of snapshots from a single-processor trace run."""

    snapshots: list[Snapshot] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        steps = [s.step for s in self.snapshots]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("snapshot steps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self) -> Iterator[Snapshot]:
        return iter(self.snapshots)

    def __getitem__(self, i: int) -> Snapshot:
        return self.snapshots[i]

    def append(self, snap: Snapshot) -> None:
        """Add a snapshot; steps must stay strictly increasing."""
        if self.snapshots and snap.step <= self.snapshots[-1].step:
            raise ValueError(
                f"snapshot step {snap.step} not after {self.snapshots[-1].step}"
            )
        self.snapshots.append(snap)

    def at_step(self, step: int) -> Snapshot:
        """The snapshot governing ``step``: the latest one with step <= given.

        Between regrids the hierarchy is unchanged, so the most recent
        snapshot describes the application at any intermediate time step.
        """
        if not self.snapshots:
            raise ValueError("trace is empty")
        if step < self.snapshots[0].step:
            raise ValueError(
                f"step {step} precedes first snapshot at {self.snapshots[0].step}"
            )
        best = self.snapshots[0]
        for s in self.snapshots:
            if s.step <= step:
                best = s
            else:
                break
        return best

    # -- summary statistics -----------------------------------------------------

    def steps(self) -> list[int]:
        """Regrid steps present in the trace."""
        return [s.step for s in self.snapshots]

    def load_series(self) -> np.ndarray:
        """Per-snapshot hierarchy load (one coarse step each)."""
        return np.array([s.load for s in self.snapshots], dtype=float)

    def patch_count_series(self) -> np.ndarray:
        """Per-snapshot patch count."""
        return np.array([s.num_patches for s in self.snapshots], dtype=int)

    def refinement_activity(self) -> np.ndarray:
        """|Δ total cells| between consecutive snapshots, normalized.

        This is the raw "activity dynamics" signal the octant classifier
        thresholds: rapidly moving fronts create large step-to-step changes
        in where (and how much) refinement exists.
        """
        cells = np.array([s.total_cells for s in self.snapshots], dtype=float)
        if len(cells) < 2:
            return np.zeros(0)
        return np.abs(np.diff(cells)) / np.maximum(cells[:-1], 1.0)

    def dirty_fractions(self) -> np.ndarray:
        """Base-grid dirty fraction of each snapshot-to-snapshot transition.

        Entry ``k`` is the fraction of base cells the incremental regrid
        path must recompute going from snapshot ``k`` to ``k+1`` (1.0 for
        incompatible transitions).  This is the trace's *reuse potential*:
        the lower the fractions, the more the execution simulator's
        :class:`~repro.execsim.reuse.UnitsReuseCache` saves.
        """
        from repro.amr.diff import diff_hierarchies

        if len(self.snapshots) < 2:
            return np.zeros(0)
        return np.array(
            [
                diff_hierarchies(a.hierarchy, b.hierarchy).dirty_fraction
                for a, b in zip(self.snapshots, self.snapshots[1:])
            ],
            dtype=float,
        )

    # -- persistence ----------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the full trace to a JSON string."""
        return json.dumps(
            {"meta": self.meta, "snapshots": [s.to_dict() for s in self.snapshots]}
        )

    @classmethod
    def from_json(cls, text: str) -> "AdaptationTrace":
        """Inverse of :meth:`to_json`."""
        d = json.loads(text)
        return cls(
            snapshots=[Snapshot.from_dict(s) for s in d["snapshots"]],
            meta=d.get("meta", {}),
        )

    def save(self, path: str | Path) -> None:
        """Write the trace to ``path`` (gzip-compressed JSON, whose CRC
        :meth:`load` checks) through :func:`~repro.util.fileio.write_file`."""
        write_file(path, gzip.compress(self.to_json().encode()))

    @classmethod
    def load(cls, path: str | Path) -> "AdaptationTrace":
        """Read a trace written by :meth:`save`."""
        return cls.from_json(gzip.decompress(Path(path).read_bytes()).decode())
