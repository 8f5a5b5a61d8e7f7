"""The SAMR grid hierarchy container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.amr.box import Box
from repro.amr.grid import Level, Patch

__all__ = ["GridHierarchy", "mark_footprints"]


def mark_footprints(mask: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Set ``mask[lo[k]:hi[k]]`` for every row ``k`` of
    :meth:`GridHierarchy.footprints`."""
    for (x0, y0, z0), (x1, y1, z1) in zip(lo.tolist(), hi.tolist()):
        mask[x0:x1, y0:y1, z0:z1] = True


@dataclass(slots=True)
class GridHierarchy:
    """A Berger–Colella grid hierarchy: base domain plus refined levels.

    ``domain`` is the base (level 0) index-space box.  ``levels[0]`` always
    covers exactly the domain with one or more base patches.  With
    space-*time* refinement (the paper's "multiple independent timesteps"),
    a level refined by cumulative factor ``R`` takes ``R`` solver sweeps per
    coarse time step; :meth:`load_per_coarse_step` accounts for that.
    """

    domain: Box
    levels: list[Level] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.levels:
            base = Level(index=0, ratio=1)
            base.add(Patch(box=self.domain, level=0, patch_id=0))
            self.levels = [base]
        if self.levels[0].ratio != 1:
            raise ValueError("base level must have ratio 1")
        for i, lvl in enumerate(self.levels):
            if lvl.index != i:
                raise ValueError(f"level at position {i} has index {lvl.index}")

    # -- basic structure ---------------------------------------------------------

    def __iter__(self) -> Iterator[Level]:
        return iter(self.levels)

    @property
    def num_levels(self) -> int:
        """Number of levels including the base."""
        return len(self.levels)

    @property
    def num_patches(self) -> int:
        """Total patch count over all levels."""
        return sum(len(lvl) for lvl in self.levels)

    def cumulative_ratio(self, level: int) -> int:
        """Product of refinement ratios from the base up to ``level``."""
        if not (0 <= level < self.num_levels):
            raise ValueError(f"level {level} out of range [0, {self.num_levels})")
        r = 1
        for lvl in self.levels[1 : level + 1]:
            r *= lvl.ratio
        return r

    def level_domain(self, level: int) -> Box:
        """The whole domain expressed in ``level``'s index space."""
        return self.domain.refine(self.cumulative_ratio(level))

    # -- size / load accounting ----------------------------------------------------

    @property
    def total_cells(self) -> int:
        """Total cells over all levels (a snapshot-size measure)."""
        return sum(lvl.num_cells for lvl in self.levels)

    def load_per_coarse_step(self) -> float:
        """Computational load of advancing the hierarchy one coarse time step.

        With factor-``r`` space-time refinement, level ``l`` is swept
        ``cumulative_ratio(l)`` times per coarse step (MIT subcycling).
        """
        total = 0.0
        for lvl in self.levels:
            total += lvl.load * self.cumulative_ratio(lvl.index)
        return total

    def refined_fraction(self, level: int) -> float:
        """Fraction of the domain covered by ``level``'s patches."""
        if level == 0:
            return 1.0
        dom = self.level_domain(level)
        return self.levels[level].num_cells / dom.num_cells

    # -- structural checks -----------------------------------------------------------

    def is_properly_nested(self) -> bool:
        """True if every patch at level l+1 is covered by level l's patches.

        (Coverage is checked after coarsening the fine patch to level l's
        index space; a buffer of 0 cells is used, matching our regridder.)
        """
        for fine in self.levels[1:]:
            coarse = self.levels[fine.index - 1]
            for p in fine:
                coarse_box = p.box.coarsen(fine.ratio)
                if coarse.covered_fraction_of(coarse_box) < 1.0:
                    return False
        return True

    def patches_in_base_space(self) -> list[tuple[Patch, Box]]:
        """Every patch paired with its footprint coarsened to base index space."""
        out: list[tuple[Patch, Box]] = []
        for lvl in self.levels:
            ratio = self.cumulative_ratio(lvl.index)
            for p in lvl:
                out.append((p, p.box.coarsen(ratio)))
        return out

    # -- adaptation-state signals (consumed by the octant classifier) -----------------

    def adaptation_scatter(self) -> float:
        """Normalized spread of refined-patch centroids in base space, in [0, 1].

        0 means all refinement concentrated at one spot; values near 1 mean
        refinement scattered across the whole domain.  The normalizer is the
        RMS distance of a uniform distribution over the domain.
        """
        refined = [lvl for lvl in self.levels[1:] if lvl.patches]
        if not refined:
            return 0.0
        pts = []
        weights = []
        for lvl in refined:
            ratio = self.cumulative_ratio(lvl.index)
            arrays = lvl.patch_arrays()
            pts.append((arrays.lo + arrays.hi) / 2.0 / ratio)
            weights.append(arrays.cells / ratio**3)
        pts_arr = np.concatenate(pts)
        w = np.concatenate(weights)
        w = w / w.sum()
        center = (pts_arr * w[:, None]).sum(axis=0)
        rms = float(np.sqrt((((pts_arr - center) ** 2).sum(axis=1) * w).sum()))
        # RMS distance from center for a uniform box of shape s is
        # sqrt(sum(s_i^2)/12); use it to normalize to [0, ~1].
        shape = np.asarray(self.domain.shape, dtype=float)
        uniform_rms = float(np.sqrt((shape**2).sum() / 12.0))
        return min(rms / uniform_rms, 1.0) if uniform_rms > 0 else 0.0

    def footprints(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Base-space footprints of ``level``'s patches, as array indices.

        Every patch box of the level is coarsened to the base index space
        (floor/ceil divide by the cumulative ratio) and clipped to the
        domain, all at once.  Returns ``(lo, hi)``: two ``(n, 3)`` int64
        arrays in patch order, relative to ``domain.lo``, with
        ``0 <= lo <= hi <= domain.shape``, so row ``k`` slices a
        base-grid array at ``patch.box.coarsen(R).intersection(domain)``
        and a footprint outside the domain is an empty slice.
        """
        ratio = self.cumulative_ratio(level)
        arrays = self.levels[level].patch_arrays()
        dlo = np.asarray(self.domain.lo, dtype=np.int64)
        dhi = np.asarray(self.domain.hi, dtype=np.int64)
        lo = np.clip(arrays.lo // ratio, dlo, dhi)
        hi = np.clip(-(-arrays.hi // ratio), lo, dhi)
        return lo - dlo, hi - dlo

    def refined_mask(self) -> np.ndarray:
        """Boolean base-grid mask of cells covered by any refined level.

        The octant classifier derives its adaptation-pattern signals
        (connected components, footprint change between snapshots) from
        this mask.
        """
        mask = np.zeros(self.domain.shape, dtype=bool)
        for lvl in self.levels[1:]:
            mark_footprints(mask, *self.footprints(lvl.index))
        return mask

    def comm_to_comp_ratio(self) -> float:
        """Ghost-surface to compute-load ratio of the *refined* levels.

        This is the comp/comm octant axis: thin or small refined features
        expose much more ghost surface per unit of compute than bulky
        ones.  The base level is excluded — it is identical for every
        hierarchy over the same domain and would only dilute the signal.
        """
        comp = 0.0
        comm = 0.0
        for lvl in self.levels[1:]:
            ratio = self.cumulative_ratio(lvl.index)
            comp += lvl.load * ratio
            comm += lvl.surface_area() * ratio
        if comp == 0:
            return 0.0
        return comm / comp

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {
            "domain": self.domain.to_dict(),
            "levels": [lvl.to_dict() for lvl in self.levels],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridHierarchy":
        """Inverse of :meth:`to_dict`."""
        return cls(
            domain=Box.from_dict(d["domain"]),
            levels=[Level.from_dict(l) for l in d["levels"]],
        )

    def copy(self) -> "GridHierarchy":
        """Deep copy (patches are immutable, levels are rebuilt)."""
        return GridHierarchy(
            domain=self.domain,
            levels=[
                Level(index=lvl.index, ratio=lvl.ratio, patches=list(lvl.patches))
                for lvl in self.levels
            ],
        )
