"""Composite workload maps.

Domain-based SAMR partitioners (the ISP family) do not partition patches;
they partition the *composite grid*: the base domain where every base cell
carries the total cost of its whole refinement column — all fine cells that
project onto it, times their time-refinement subcycling factor.  This
module builds that map from a :class:`~repro.amr.hierarchy.GridHierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy

__all__ = ["WorkloadMap", "composite_load_map", "update_composite_load_map"]

#: patch count from which :func:`composite_load_map` uses the batched
#: scatter; below it, contiguous slice adds are already optimal and the
#: ragged index arithmetic would only add overhead.  Measured on the small
#: RM3D trace (2-core host): 12 of its 40 snapshots have 3-24 patches, and
#: one pass over those 12 took 3.4-6.4 ms (median 3.5) by the per-patch
#: loop against 10.2-16.6 ms (median 10.6) by :func:`_batched_values`,
#: bit-identical.
VECTOR_MIN_PATCHES = 32


@dataclass(slots=True)
class WorkloadMap:
    """Per-base-cell computational load of one coarse time step."""

    domain: Box
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"domain shape {self.domain.shape}"
            )
        if (self.values < 0).any():
            raise ValueError("workload values must be non-negative")

    @property
    def total(self) -> float:
        """Total load over the domain."""
        return float(self.values.sum())

    def box_load(self, box: Box) -> float:
        """Total load inside ``box`` (expressed in base index space)."""
        inter = box.intersection(self.domain)
        if inter is None:
            return 0.0
        return float(self.values[inter.slices(self.domain.lo)].sum())

    def flat_loads(self, order: np.ndarray) -> np.ndarray:
        """Load per base cell in a caller-supplied linearization ``order``.

        ``order`` is an integer array of flattened C-order cell indices
        (e.g. a space-filling-curve permutation); the result aligns with it.
        """
        flat = self.values.reshape(-1)
        return flat[order]


def composite_load_map(hierarchy: GridHierarchy) -> WorkloadMap:
    """Project a hierarchy's load onto the base grid.

    A patch at level ``l`` with cumulative spatial refinement ``R``
    contributes ``load_per_cell * R`` per *fine* cell per coarse step
    (``R`` time subcycles), i.e. up to ``load_per_cell * R^4`` per fully
    covered base cell in 3-D.  Partial coverage at unaligned patch edges is
    handled exactly with per-axis overlap counts.

    The patch count alone picks the accumulation: from
    :data:`VECTOR_MIN_PATCHES` patches up, :func:`_batched_values` lands
    the unrefined levels by slice and every patch of a refined level in
    one scatter; below that, the per-patch slice adds here are already
    optimal.  Both are bit-identical to the frozen loop in
    ``tests/reference/ref_workload.py``.
    """
    domain = hierarchy.domain
    if hierarchy.num_patches >= VECTOR_MIN_PATCHES:
        return WorkloadMap(domain=domain, values=_batched_values(hierarchy))
    values = np.zeros(domain.shape, dtype=float)

    for lvl in hierarchy.levels:
        ratio = hierarchy.cumulative_ratio(lvl.index)
        subcycles = ratio  # factor-r space-*time* refinement
        for patch in lvl:
            weight = patch.load_per_cell * subcycles
            if ratio == 1:
                sl = patch.box.slices(domain.lo)
                values[sl] += weight
                continue
            coarse = patch.box.coarsen(ratio)
            counts = [
                _axis_overlap(patch.box.lo[a], patch.box.hi[a], coarse.lo[a],
                              coarse.hi[a], ratio)
                for a in range(3)
            ]
            block = (
                counts[0][:, None, None]
                * counts[1][None, :, None]
                * counts[2][None, None, :]
            ).astype(float)
            clipped = coarse.intersection(domain)
            if clipped is None:
                continue
            # Slice the block to the clipped region relative to `coarse`.
            bsl = clipped.slices(coarse.lo)
            values[clipped.slices(domain.lo)] += weight * block[bsl]
    return WorkloadMap(domain=domain, values=values)


def update_composite_load_map(
    old: WorkloadMap,
    hierarchy: GridHierarchy,
    dirty_mask: np.ndarray,
) -> WorkloadMap:
    """Incrementally update ``old`` to reflect ``hierarchy``.

    ``dirty_mask`` (from :func:`repro.amr.diff.diff_hierarchies`) marks
    the base cells whose composite load may have changed; those cells are
    zeroed and re-accumulated from every patch of the *new* hierarchy
    whose footprint touches them, in the same (level, patch) order as a
    full recompute.  Clean cells keep their previous values — by the
    diff's construction every patch covering them is unchanged and in
    unchanged relative order, so the result is **bit-identical** to
    ``composite_load_map(hierarchy)`` (proven by the incremental
    differential suite).
    """
    domain = hierarchy.domain
    if old.domain != domain:
        raise ValueError("incremental update requires an unchanged domain")
    if dirty_mask.shape != old.values.shape:
        raise ValueError(
            f"dirty_mask shape {dirty_mask.shape} does not match "
            f"map shape {old.values.shape}"
        )
    values = old.values.copy()
    values[dirty_mask] = 0.0
    # Running count of dirty rows along each axis: a patch whose
    # footprint misses the dirty rows of any axis touches no dirty cell,
    # so every patch of a level is screened at once.
    rows = [
        np.concatenate([[0], np.cumsum(dirty_mask.any(axis=other))])
        for other in ((1, 2), (0, 2), (0, 1))
    ]

    for lvl in hierarchy.levels:
        if not lvl.patches:
            continue
        ratio = hierarchy.cumulative_ratio(lvl.index)
        arrays = lvl.patch_arrays()
        clo, chi = hierarchy.footprints(lvl.index)
        hit = np.ones(len(clo), dtype=bool)
        for axis, count in enumerate(rows):
            hit &= count[chi[:, axis]] > count[clo[:, axis]]
        weights = (arrays.load_per_cell * ratio).tolist()
        for k in np.flatnonzero(hit).tolist():
            lo, hi = clo[k].tolist(), chi[k].tolist()
            sl = tuple(slice(lo[a], hi[a]) for a in range(3))
            local = dirty_mask[sl]
            if not local.any():
                continue
            if ratio == 1:
                values[sl][local] += weights[k]
                continue
            flo, fhi = arrays.lo[k].tolist(), arrays.hi[k].tolist()
            counts = [
                _axis_overlap(flo[a], fhi[a], lo[a] + domain.lo[a],
                              hi[a] + domain.lo[a], ratio)
                for a in range(3)
            ]
            block = (
                counts[0][:, None, None]
                * counts[1][None, :, None]
                * counts[2][None, None, :]
            ).astype(float)
            values[sl][local] += (weights[k] * block)[local]
    return WorkloadMap(domain=domain, values=values)


def _axis_overlap(flo: int, fhi: int, clo: int, chi: int, ratio: int) -> np.ndarray:
    """Fine-cell count of ``[flo, fhi)`` inside each coarse cell of ``[clo, chi)``."""
    n = chi - clo
    idx = np.arange(clo, chi)
    starts = np.maximum(idx * ratio, flo)
    ends = np.minimum((idx + 1) * ratio, fhi)
    return np.maximum(ends - starts, 0).astype(np.int64).reshape(n)


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[k], starts[k] + lengths[k])``."""
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    total = int(lengths.sum())
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, lengths)
        + np.repeat(starts, lengths)
    )


def _batched_values(hierarchy: GridHierarchy) -> np.ndarray:
    """Patch-batched base-grid load array of :func:`composite_load_map`.

    A level whose cumulative ratio is 1 covers each base cell of a patch
    exactly once, so its patches land as contiguous slice adds of their
    ``weight``.  Every refined level is processed at once with ragged
    (offset-indexed) arrays, and its contributions land in one in-order
    ``np.add.at`` scatter onto the same map, removing the per-patch
    dispatch overhead that dominates on hierarchies with many small
    patches.  Only refined cells pass through the scatter.

    Bit-identity with the per-patch loop: per base cell a patch
    contributes ``weight * float(cx * cy * cz)`` — an exact int64
    product cast to float, then one float multiply — and both the slice
    adds and ``np.add.at`` apply their additions in input order, so the
    per-cell float additions happen in the loop's order (levels in
    order, patches in level order).
    """
    domain = hierarchy.domain
    _, ny, nz = domain.shape
    dlo = np.asarray(domain.lo, dtype=np.int64)
    values = np.zeros(domain.shape, dtype=float)
    flat = values.reshape(-1)

    for lvl in hierarchy.levels:
        if not lvl.patches:
            continue
        ratio = hierarchy.cumulative_ratio(lvl.index)
        arrays = lvl.patch_arrays()
        weight = arrays.load_per_cell * ratio
        flo = arrays.lo
        fhi = arrays.hi
        # The clipped coarse range is exactly the per-patch loop's
        # ``coarse.intersection(domain)`` block slice.
        rlo, rhi = hierarchy.footprints(lvl.index)
        m = rhi - rlo
        cells = m[:, 0] * m[:, 1] * m[:, 2]
        keep = cells > 0
        if not keep.any():
            continue
        if ratio == 1:
            for w, (x0, y0, z0), (x1, y1, z1) in zip(
                weight[keep].tolist(), rlo[keep].tolist(), rhi[keep].tolist()
            ):
                values[x0:x1, y0:y1, z0:z1] += w
            continue
        clo = rlo + dlo
        weight, flo, fhi, clo, m, cells = (
            arr[keep] for arr in (weight, flo, fhi, clo, m, cells)
        )

        # Per-axis ragged fine-overlap counts (the _axis_overlap arrays of
        # every patch, concatenated).
        counts: list[np.ndarray] = []
        offsets: list[np.ndarray] = []
        for axis in range(3):
            lengths = m[:, axis]
            coarse_idx = _ragged_arange(clo[:, axis], lengths)
            lo_rep = np.repeat(flo[:, axis], lengths)
            hi_rep = np.repeat(fhi[:, axis], lengths)
            starts = np.maximum(coarse_idx * ratio, lo_rep)
            ends = np.minimum((coarse_idx + 1) * ratio, hi_rep)
            counts.append(np.maximum(ends - starts, 0))
            offsets.append(np.concatenate([[0], np.cumsum(lengths)[:-1]]))

        # Decompose each patch-local cell number into (a, b, c) block
        # coordinates, gather the three axis counts, and scatter the
        # contribution values onto their flat domain indices.
        local = _ragged_arange(np.zeros(cells.size, dtype=np.int64), cells)
        my_rep = np.repeat(m[:, 1], cells)
        mz_rep = np.repeat(m[:, 2], cells)
        c = local % mz_rep
        rem = local // mz_rep
        b = rem % my_rep
        a = rem // my_rep
        cx = counts[0][np.repeat(offsets[0], cells) + a]
        cy = counts[1][np.repeat(offsets[1], cells) + b]
        cz = counts[2][np.repeat(offsets[2], cells) + c]
        gx = np.repeat(clo[:, 0] - dlo[0], cells) + a
        gy = np.repeat(clo[:, 1] - dlo[1], cells) + b
        gz = np.repeat(clo[:, 2] - dlo[2], cells) + c
        np.add.at(
            flat, (gx * ny + gy) * nz + gz,
            np.repeat(weight, cells) * (cx * cy * cz).astype(float),
        )
    return values
