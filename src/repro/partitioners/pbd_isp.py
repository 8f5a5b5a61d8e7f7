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


#: the two axes each axis's load marginal sums over
_OTHER = ((1, 2), (0, 2), (0, 1))


def _choose_bisection_cut(
    cube: np.ndarray, nprocs: int, margins: list[np.ndarray | None]
) -> tuple[int, int, int] | None:
    """Best axis-aligned cut for splitting ``cube`` across ``nprocs``.

    Returns ``(axis, cut, p1)`` — cut the cube before slice ``cut`` of
    ``axis`` and give the low side ``p1`` processors — or ``None`` when no
    axis can be cut.  When the cube holds at least one cell per processor,
    cut positions are clamped so each side keeps enough whole slices for
    its processor share (no processor can be starved of cells by a
    skewed load profile).

    ``margins[axis]`` is the cube's load marginal along ``axis`` (its sum
    over the other two axes) or ``None``; a missing marginal that a cut
    needs is summed here and stored back.
    """
    p1 = nprocs // 2
    frac = p1 / nprocs
    ncells = cube.size
    total = float(cube.sum())
    target = frac * total
    best_err = 0.0
    best_axis = -1
    best_cut = 0
    for axis, length in enumerate(cube.shape):
        if length < 2:
            continue
        slab = ncells // length  # cells per whole slice of this axis
        cmin, cmax = 1, length - 1
        if ncells >= nprocs:
            cmin = max(cmin, -(-p1 // slab))
            cmax = min(cmax, length - (-(-(nprocs - p1) // slab)))
            if cmin > cmax:
                continue
        if total <= 0:
            cut = min(max(int(round(length * frac)), cmin), cmax)
            err = 0.0
        else:
            marginal = margins[axis]
            if marginal is None:
                marginal = margins[axis] = cube.sum(axis=_OTHER[axis])
            cums = marginal.cumsum()
            idx = int(cums.searchsorted(target))
            # the nearer of cut points idx and idx + 1 (idx on a tie)
            if cmin <= idx <= cmax:
                cut = idx
                err = abs(float(cums[idx - 1]) - target)
                if idx < cmax:
                    err_up = abs(float(cums[idx]) - target)
                    if err_up < err:
                        cut, err = idx + 1, err_up
            else:
                cut = idx + 1
                if not cmin <= cut <= cmax:
                    cut = min(max(idx, cmin), cmax)
                err = abs(float(cums[cut - 1]) - target)
        if best_axis < 0 or err < best_err:
            best_err, best_axis, best_cut = err, axis, cut
    if best_axis < 0:
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
    return best_axis, best_cut, p1


def _bisect(
    cube: np.ndarray,
    owners: np.ndarray,
    proc_lo: int,
    proc_hi: int,
    margins: list[np.ndarray | None],
) -> None:
    """Recursive dissection over subcube views.

    A child is a whole-slice range of its parent along the cut axis, so
    its marginal on that axis is the matching slice of the parent's, with
    the same bits; only the other two axes are summed again.
    """
    nprocs = proc_hi - proc_lo
    if nprocs <= 1:
        owners[...] = proc_lo
        return
    plan = _choose_bisection_cut(cube, nprocs, margins)
    if plan is None:
        # No axis can be cut: give everything to the first subgroup.
        owners[...] = proc_lo
        return
    axis, cut, p1 = plan
    head = (slice(None),) * axis
    lo = head + (slice(None, cut),)
    hi = head + (slice(cut, None),)
    marginal = margins[axis]
    lo_margins: list[np.ndarray | None] = [None, None, None]
    hi_margins: list[np.ndarray | None] = [None, None, None]
    if marginal is not None:
        lo_margins[axis] = marginal[:cut]
        hi_margins[axis] = marginal[cut:]
    _bisect(cube[lo], owners[lo], proc_lo, proc_lo + p1, lo_margins)
    _bisect(cube[hi], owners[hi], proc_lo + p1, proc_hi, hi_margins)


def pbd_partition_cube(cube: np.ndarray, num_procs: int) -> np.ndarray:
    """Owner cube of the p-way binary dissection."""
    owners = np.zeros(cube.shape, dtype=int)
    _bisect(cube, owners, 0, num_procs, [None, None, None])
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
