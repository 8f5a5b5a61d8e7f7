"""pBD-ISP: p-way binary dissection with inverse SFC ordering.

Recursive geometric bisection of the unit lattice: the processor group is
halved, the lattice box is cut by an axis-aligned plane placing load in
proportion to the two halves, and recursion continues until every
processor owns one rectangular block.  Compact rectangular subdomains give
the lowest communication volume and data migration of the suite — at the
price of the worst load balance (Table 4: 35 % max imbalance), because cut
planes are constrained to whole lattice slices.

The frozen recursion in ``tests/reference/ref_pbd.py`` pins the owner
cubes bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.partitioners.base import Partitioner
from repro.partitioners.units import CompositeUnits

__all__ = ["PBDISPPartitioner", "pbd_partition_cube"]


def _choose_bisection_cut(
    cube: np.ndarray, nprocs: int
) -> tuple[int, int, int] | None:
    """Best axis-aligned cut for splitting ``cube`` across ``nprocs``.

    Returns ``(axis, cut, p1)`` — cut the cube before slice ``cut`` of
    ``axis`` and give the low side ``p1`` processors — or ``None`` when no
    axis can be cut.  When the cube holds at least one cell per processor,
    cut positions are clamped so each side keeps enough whole slices for
    its processor share (no processor can be starved of cells by a
    skewed load profile).
    """
    p1 = nprocs // 2
    frac = p1 / nprocs
    ncells = cube.size
    total = float(cube.sum())
    best: tuple[float, int, int] | None = None  # (error, axis, cut)
    for axis in range(3):
        length = cube.shape[axis]
        if length < 2:
            continue
        slab = ncells // length  # cells per whole slice of this axis
        cmin, cmax = 1, length - 1
        if ncells >= nprocs:
            cmin = max(cmin, -(-p1 // slab))
            cmax = min(cmax, length - (-(-(nprocs - p1) // slab)))
            if cmin > cmax:
                continue
        other = tuple(a for a in range(3) if a != axis)
        cums = np.cumsum(cube.sum(axis=other))
        if total <= 0:
            cut = min(max(int(round(length * frac)), cmin), cmax)
            err = 0.0
        else:
            target = frac * total
            idx = int(np.searchsorted(cums, target))
            candidates = [c for c in (idx, idx + 1) if cmin <= c <= cmax]
            if not candidates:
                candidates = [min(max(idx, cmin), cmax)]
            cut = min(candidates, key=lambda c: abs(float(cums[c - 1]) - target))
            err = abs(float(cums[cut - 1]) - target)
        if best is None or err < best[0]:
            best = (err, axis, cut)
    if best is None:
        # Either a 1x1x1 cube, or the per-side slice windows closed on
        # every axis: halve the longest cuttable axis and split the
        # processor group in proportion to the cells on each side.
        length = max(cube.shape)
        if length < 2:
            return None
        axis = cube.shape.index(length)  # pragma: no cover - defensive
        cut = length // 2  # pragma: no cover
        lo_cells = cut * (ncells // length)  # pragma: no cover
        p1 = int(round(nprocs * lo_cells / ncells))  # pragma: no cover
        p1 = min(  # pragma: no cover
            max(p1, max(1, nprocs - (ncells - lo_cells))),
            min(nprocs - 1, lo_cells),
        )
        return axis, cut, p1  # pragma: no cover
    return best[1], best[2], p1


def _bisect(
    cube: np.ndarray, owners: np.ndarray, proc_lo: int, proc_hi: int
) -> None:
    """Recursive dissection over subcube views."""
    nprocs = proc_hi - proc_lo
    if nprocs <= 1:
        owners[...] = proc_lo
        return
    plan = _choose_bisection_cut(cube, nprocs)
    if plan is None:
        # No axis can be cut: give everything to the first subgroup.
        owners[...] = proc_lo
        return
    axis, cut, p1 = plan
    sl_lo = [slice(None)] * 3
    sl_hi = [slice(None)] * 3
    sl_lo[axis] = slice(0, cut)
    sl_hi[axis] = slice(cut, cube.shape[axis])
    _bisect(cube[tuple(sl_lo)], owners[tuple(sl_lo)], proc_lo, proc_lo + p1)
    _bisect(cube[tuple(sl_hi)], owners[tuple(sl_hi)], proc_lo + p1, proc_hi)


def pbd_partition_cube(cube: np.ndarray, num_procs: int) -> np.ndarray:
    """Owner cube of the p-way binary dissection."""
    owners = np.zeros(cube.shape, dtype=int)
    _bisect(cube, owners, proc_lo=0, proc_hi=num_procs)
    return owners


class PBDISPPartitioner(Partitioner):
    """Recursive coordinate bisection over the unit lattice."""

    name = "pBD-ISP"
    messages_per_neighbor = 1.0

    def _assign(
        self,
        units: CompositeUnits,
        num_procs: int,
        capacities: np.ndarray | None,
    ) -> np.ndarray:
        # Work on the lattice-ordered load cube, then map back to curve order.
        lat_loads = np.empty(len(units))
        lat_loads[units.lattice_index] = units.loads
        cube = lat_loads.reshape(units.grid_shape)
        owners_cube = pbd_partition_cube(cube, num_procs)
        lat_owner = owners_cube.reshape(-1)
        return lat_owner[units.lattice_index]
