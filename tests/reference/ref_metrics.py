"""Frozen scalar references of the PAC-metric geometry kernels.

Verbatim copies (see this package's docstring for THE FREEZE RULE) of
the loops that the cut-only / run-id / per-level kernels replaced:

- :func:`rect_fragments` — the per-column ``np.minimum.at`` loop of
  ``Partition.rect_fragments`` in ``repro/partitioners/base.py``, taking
  the owner lattice (``Partition.owner_lattice()``) directly;
- :func:`comm_volume` — ``_comm_volume`` of
  ``repro/partitioners/metrics.py``, which built face areas and
  densities for *every* adjacency pair before selecting the cut ones;
  takes the adjacency arrays, owners, unit shapes and loads;
- :func:`refined_mask` — ``GridHierarchy.refined_mask`` of
  ``repro/amr/hierarchy.py`` over a duck-typed hierarchy (``domain``,
  ``levels``, ``cumulative_ratio``, boxes with
  ``coarsen``/``intersection``/``slices``).
"""

from __future__ import annotations

import numpy as np


def rect_fragments(lat: np.ndarray) -> int:
    nx, ny, nz = lat.shape
    # Start of an x-run at (x, y, z): first cell or owner change.
    start = np.ones(lat.shape, dtype=bool)
    start[1:, :, :] = lat[1:, :, :] != lat[:-1, :, :]
    if ny == 1:
        return int(start.sum())
    # A run merges with its y-neighbor when every cell of the column
    # pair agrees in owner AND the run-start pattern matches, i.e. the
    # runs have identical extent.  Count runs that do NOT merge.
    same_owner = np.zeros(lat.shape, dtype=bool)
    same_owner[:, 1:, :] = lat[:, 1:, :] == lat[:, :-1, :]
    same_start = np.zeros(lat.shape, dtype=bool)
    same_start[:, 1:, :] = start[:, 1:, :] == start[:, :-1, :]
    # Propagate "column pair agrees over the whole run" down each run:
    # a run merges iff all its cells have same_owner and same_start.
    mergeable = (same_owner & same_start).astype(np.int64)
    # Reduce per run: a run's cells share the cumulative run id along x.
    run_id = np.cumsum(start, axis=0) - 1  # per (y, z) column
    fragments = 0
    for z in range(nz):
        for y in range(ny):
            ids = run_id[:, y, z]
            starts_col = start[:, y, z]
            n_runs = int(starts_col.sum())
            if y == 0:
                fragments += n_runs
                continue
            # A run survives (is not merged) unless every cell merges.
            merge_all = np.ones(n_runs, dtype=np.int64)
            np.minimum.at(merge_all, ids, mergeable[:, y, z])
            fragments += int(n_runs - merge_all.sum())
    return int(fragments)


def comm_volume(
    i: np.ndarray,
    j: np.ndarray,
    axis: np.ndarray,
    assignment: np.ndarray,
    shapes: np.ndarray,
    loads: np.ndarray,
) -> float:
    if i.size == 0:
        return 0.0
    cut = assignment[i] != assignment[j]
    if not cut.any():
        return 0.0
    cells = shapes.prod(axis=1).astype(float)
    density = loads / np.maximum(cells, 1.0)
    # Face area: product of the smaller extents along the two other axes.
    other = np.array([[1, 2], [0, 2], [0, 1]])
    face = np.empty(i.size, dtype=float)
    for ax in range(3):
        sel = axis == ax
        if not sel.any():
            continue
        o1, o2 = other[ax]
        a = np.minimum(shapes[i[sel], o1], shapes[j[sel], o1])
        b = np.minimum(shapes[i[sel], o2], shapes[j[sel], o2])
        face[sel] = a * b
    dens = 0.5 * (density[i] + density[j])
    return float((face[cut] * dens[cut]).sum())


def refined_mask(hierarchy) -> np.ndarray:
    mask = np.zeros(hierarchy.domain.shape, dtype=bool)
    for lvl in hierarchy.levels[1:]:
        ratio = hierarchy.cumulative_ratio(lvl.index)
        for p in lvl:
            base_box = p.box.coarsen(ratio).intersection(hierarchy.domain)
            if base_box is not None:
                mask[base_box.slices(hierarchy.domain.lo)] = True
    return mask
