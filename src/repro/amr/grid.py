"""Patches and refinement levels of a SAMR hierarchy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.amr.box import Box

__all__ = ["Patch", "PatchArrays", "Level"]


@dataclass(frozen=True, slots=True)
class Patch:
    """A rectangular grid patch at one refinement level.

    ``box`` lives in the *level's own* index space (i.e. already refined).
    ``load_per_cell`` captures heterogeneous physics cost: the paper notes
    that "the local physics may change significantly from zone to zone as
    fronts move through the system", so cost per zone is not uniform.
    """

    box: Box
    level: int
    patch_id: int
    load_per_cell: float = 1.0

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if self.load_per_cell < 0:
            raise ValueError(f"load_per_cell must be >= 0, got {self.load_per_cell}")

    @property
    def num_cells(self) -> int:
        """Cells in the patch (level index space)."""
        return self.box.num_cells

    @property
    def load(self) -> float:
        """Total computational load of one solver sweep over the patch."""
        return self.num_cells * self.load_per_cell

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {
            "box": self.box.to_dict(),
            "level": self.level,
            "patch_id": self.patch_id,
            "load_per_cell": self.load_per_cell,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Patch":
        """Inverse of :meth:`to_dict`."""
        return cls(
            box=Box.from_dict(d["box"]),
            level=d["level"],
            patch_id=d["patch_id"],
            load_per_cell=d.get("load_per_cell", 1.0),
        )


@dataclass(frozen=True, slots=True)
class PatchArrays:
    """A level's patches as aligned read-only arrays, in patch order."""

    lo: np.ndarray             # (n, 3) int64 box lower corners, level space
    hi: np.ndarray             # (n, 3) int64 box upper corners (exclusive)
    load_per_cell: np.ndarray  # (n,) float64
    cells: np.ndarray          # (n,) int64 cells per patch


@dataclass(slots=True)
class Level:
    """One refinement level: a set of non-overlapping patches.

    ``ratio`` is the refinement ratio *from the next coarser level to this
    one* (1 for the base level).  Patch boxes are expressed in this level's
    index space.  ``patches`` changes only through :meth:`add`, which
    drops the cached :meth:`patch_arrays`.
    """

    index: int
    ratio: int
    patches: list[Patch] = field(default_factory=list)
    _arrays: PatchArrays | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"level index must be >= 0, got {self.index}")
        if self.ratio < 1:
            raise ValueError(f"refinement ratio must be >= 1, got {self.ratio}")
        for p in self.patches:
            if p.level != self.index:
                raise ValueError(
                    f"patch {p.patch_id} declares level {p.level}, "
                    f"stored in level {self.index}"
                )

    def __iter__(self) -> Iterator[Patch]:
        return iter(self.patches)

    def __len__(self) -> int:
        return len(self.patches)

    def patch_arrays(self) -> PatchArrays:
        """Bounds, per-cell loads and cell counts of every patch.

        Built in one pass over the patches and cached until the next
        :meth:`add`; the arrays are read-only.
        """
        arrays = self._arrays
        if arrays is None:
            bounds = np.array(
                [p.box.lo + p.box.hi for p in self.patches], dtype=np.int64
            ).reshape(-1, 6)
            lo = bounds[:, :3]
            hi = bounds[:, 3:]
            shape = hi - lo
            arrays = PatchArrays(
                lo=lo,
                hi=hi,
                load_per_cell=np.array(
                    [p.load_per_cell for p in self.patches], dtype=float
                ),
                cells=shape[:, 0] * shape[:, 1] * shape[:, 2],
            )
            for arr in (lo, hi, arrays.load_per_cell, arrays.cells):
                arr.setflags(write=False)
            self._arrays = arrays
        return arrays

    @property
    def num_cells(self) -> int:
        """Total cells over all patches of the level."""
        return int(self.patch_arrays().cells.sum())

    @property
    def load(self) -> float:
        """Total single-sweep computational load of the level."""
        arrays = self.patch_arrays()
        # Builtin sum over Python floats, as the per-patch loop did:
        # np.sum is pairwise and Python 3.12's sum() is compensated, so
        # only the builtin matches the loop on every interpreter.
        return sum((arrays.cells * arrays.load_per_cell).tolist())

    def surface_area(self) -> int:
        """Total patch surface area (level cells) — ghost-exchange proxy."""
        s = self.patch_arrays()
        sx, sy, sz = (s.hi - s.lo).T
        return int((2 * (sx * sy + sy * sz + sx * sz)).sum())

    def add(self, patch: Patch) -> None:
        """Append a patch, enforcing level consistency and non-overlap."""
        if patch.level != self.index:
            raise ValueError(
                f"patch level {patch.level} does not match level index {self.index}"
            )
        for existing in self.patches:
            if existing.box.intersects(patch.box):
                raise ValueError(
                    f"patch {patch.patch_id} overlaps patch {existing.patch_id} "
                    f"on level {self.index}"
                )
        self.patches.append(patch)
        self._arrays = None

    def covered_fraction_of(self, box: Box) -> float:
        """Fraction of ``box`` (in this level's index space) covered by patches."""
        if box.num_cells == 0:
            return 0.0
        covered = 0
        for p in self.patches:
            inter = p.box.intersection(box)
            if inter is not None:
                covered += inter.num_cells
        return covered / box.num_cells

    def bounding_box(self) -> Box | None:
        """Smallest box containing every patch, or ``None`` if empty."""
        if not self.patches:
            return None
        out = self.patches[0].box
        for p in self.patches[1:]:
            out = out.bounding_union(p.box)
        return out

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {
            "index": self.index,
            "ratio": self.ratio,
            "patches": [p.to_dict() for p in self.patches],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Level":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=d["index"],
            ratio=d["ratio"],
            patches=[Patch.from_dict(p) for p in d["patches"]],
        )
