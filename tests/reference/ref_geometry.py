"""Unit-lattice geometry in the shape the oracles take it.

The package reads a unit lattice's geometry only through
``CompositeUnits.pair_geometry()`` (adjacency pairs, face areas and cell
counts).  The frozen oracles in this directory take the older
all-pairs form instead: the ``(i, j, axis)`` adjacency arrays and each
unit's ``(n, 3)`` extent.  These two functions build that form from a
``CompositeUnits`` for the differential tests and kernel benchmarks.
"""

from __future__ import annotations

import numpy as np


def unit_shapes(units) -> np.ndarray:
    """(n, 3) extent of each unit in base cells (edge units clipped), in
    curve order."""
    g = units.granularity
    extents = []
    for axis in range(3):
        lo = np.arange(units.grid_shape[axis]) * g + units.domain.lo[axis]
        extents.append(np.minimum(lo + g, units.domain.hi[axis]) - lo)
    ex, ey, ez = extents
    return np.column_stack(
        [ex[units.ijk[:, 0]], ey[units.ijk[:, 1]], ez[units.ijk[:, 2]]]
    )


def adjacency_arrays(units) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, axis) arrays of curve positions, one entry per adjacent pair.

    Pairs are listed axis-major, each axis in C order over the lower
    endpoint's lattice coordinates.  ``i`` and ``j`` are the memoized
    read-only arrays of ``units.pair_geometry()``; ``axis`` is built here.
    """
    geo = units.pair_geometry()
    nx, ny, nz = units.grid_shape
    per_axis = [(nx - 1) * ny * nz, nx * (ny - 1) * nz, nx * ny * (nz - 1)]
    return geo.i, geo.j, np.repeat(np.arange(3), per_axis)
