"""Composite-grid units: the common currency of domain-based partitioners.

The composite grid view collapses the SAMR hierarchy onto the base grid
(:func:`repro.amr.workload.composite_load_map`); partitioners then operate
on *units* — uniform base-grid blocks of a chosen granularity, each
carrying its composite load — linearized along a space-filling curve.
Keeping units on a regular block lattice makes adjacency (and hence the
communication metric) a constant-time lookup.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.amr.workload import WorkloadMap, composite_load_map
from repro.sfc import CURVES, curve_order, curve_rank_of_cells

__all__ = [
    "CompositeUnits",
    "build_units",
    "clear_adjacency_memo",
    "rebuild_units",
    "units_from_map",
]


@dataclass(frozen=True, slots=True)
class _UnitGeometry:
    """One memo entry: adjacency pairs (i, j) of curve positions, the
    face area of each pair and each unit's cell count, as the cut reads
    them."""

    i: np.ndarray
    j: np.ndarray
    face: np.ndarray   # (pairs,) face area in base cells, float
    cells: np.ndarray  # (n,) max(cells, 1) per unit, float, curve order

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.i, self.j, self.face, self.cells))


#: memoized (domain, granularity, curve) → unit geometry: adjacency
#: pairs, face areas and cell counts, a pure function of the key that
#: the cut record reads at every regrid.  Arrays are read-only.  The
#: memo is FIFO-evicted to stay within :data:`_GEOMETRY_MEMO_BYTES` (a
#: byte budget, not an entry count: one reference-lattice entry,
#: 128x32x32 units, is about 10 MB).
_GEOMETRY_MEMO: dict[tuple[Box, int, str], _UnitGeometry] = {}
_GEOMETRY_MEMO_BYTES = 64 << 20
#: serializes insertion and eviction across server worker threads
_GEOMETRY_LOCK = threading.Lock()


def clear_adjacency_memo() -> None:
    """Drop all memoized unit geometry (mainly for tests)."""
    with _GEOMETRY_LOCK:
        _GEOMETRY_MEMO.clear()


def _memoize(key: tuple[Box, int, str], entry: _UnitGeometry) -> None:
    """Insert ``entry``, evicting the oldest entries to stay in budget."""
    size = entry.nbytes
    if size > _GEOMETRY_MEMO_BYTES:
        return
    with _GEOMETRY_LOCK:
        _GEOMETRY_MEMO.pop(key, None)
        used = sum(e.nbytes for e in _GEOMETRY_MEMO.values())
        while _GEOMETRY_MEMO and used + size > _GEOMETRY_MEMO_BYTES:
            used -= _GEOMETRY_MEMO.pop(next(iter(_GEOMETRY_MEMO))).nbytes
        _GEOMETRY_MEMO[key] = entry


@dataclass(slots=True)
class CompositeUnits:
    """Blocks of the base grid, ordered along a space-filling curve.

    Arrays are aligned: entry ``i`` describes the ``i``-th unit *in curve
    order*.  ``grid_shape`` is the unit lattice (nx, ny, nz); ``ijk`` the
    lattice coordinates of each unit; ``unit_id`` maps lattice C-order
    index → curve position (inverse of ``lattice_index``).
    """

    domain: Box
    granularity: int
    curve: str
    grid_shape: tuple[int, int, int]
    ijk: np.ndarray            # (n, 3) lattice coordinates, curve order
    loads: np.ndarray          # (n,) composite load per unit, curve order
    lattice_index: np.ndarray  # (n,) flat C-order lattice index, curve order
    curve_position: np.ndarray  # (nx*ny*nz,) lattice index -> curve order

    def __len__(self) -> int:
        return len(self.loads)

    @property
    def total_load(self) -> float:
        """Sum of unit loads."""
        return float(self.loads.sum())

    def unit_box(self, i: int) -> Box:
        """Base-grid box of the ``i``-th unit (curve order)."""
        g = self.granularity
        lo = tuple(
            int(self.domain.lo[a] + self.ijk[i, a] * g) for a in range(3)
        )
        hi = tuple(
            min(lo[a] + g, self.domain.hi[a]) for a in range(3)
        )
        return Box(lo, hi)

    def _extents(self) -> list[np.ndarray]:
        """Per-axis unit extents in base cells (edge units clipped)."""
        g = self.granularity
        out = []
        for axis in range(3):
            lo = np.arange(self.grid_shape[axis]) * g + self.domain.lo[axis]
            out.append(np.minimum(lo + g, self.domain.hi[axis]) - lo)
        return out

    def pair_geometry(self) -> _UnitGeometry:
        """The memoized geometry of this unit lattice (read-only arrays).

        A pure function of ``(domain, granularity, curve)``: adjacency
        pairs, the face area of each pair and the cell count of each
        unit.  Pairs are listed axis-major, each axis in C order over the
        lower endpoint's lattice coordinates.  Both endpoints of an
        axis-``a`` pair share their other two lattice coordinates, so the
        face is the product of the extents along those two axes.
        """
        memo_key = (self.domain, self.granularity, self.curve)
        cached = _GEOMETRY_MEMO.get(memo_key)
        if cached is not None:
            obs.counter("units.adjacency_memo", outcome="hit").inc()
            return cached
        obs.counter("units.adjacency_memo", outcome="miss").inc()
        lat = self.curve_position.reshape(self.grid_shape)
        ex, ey, ez = (e.astype(float) for e in self._extents())
        ex, ey, ez = ex[:, None, None], ey[None, :, None], ez[None, None, :]
        ii: list[np.ndarray] = []
        jj: list[np.ndarray] = []
        faces: list[np.ndarray] = []
        for axis, face in enumerate((ey * ez, ex * ez, ex * ey)):
            sl_lo = [slice(None)] * 3
            sl_hi = [slice(None)] * 3
            sl_lo[axis] = slice(0, self.grid_shape[axis] - 1)
            sl_hi[axis] = slice(1, self.grid_shape[axis])
            a = lat[tuple(sl_lo)]
            ii.append(a.ravel())
            jj.append(lat[tuple(sl_hi)].ravel())
            faces.append(np.broadcast_to(face, a.shape).ravel())
        cells = (ex * ey * ez).ravel()[self.lattice_index]
        entry = _UnitGeometry(
            i=np.concatenate(ii).astype(int, copy=False),
            j=np.concatenate(jj).astype(int, copy=False),
            face=np.concatenate(faces),
            cells=np.maximum(cells, 1.0),
        )
        for arr in (entry.i, entry.j, entry.face, entry.cells):
            arr.setflags(write=False)
        _memoize(memo_key, entry)
        return entry


def build_units(
    hierarchy_or_map: GridHierarchy | WorkloadMap,
    *,
    granularity: int = 4,
    curve: str = "hilbert",
) -> CompositeUnits:
    """Build composite units from a hierarchy (or a precomputed load map).

    ``granularity`` is the unit block edge in base cells; the paper calls
    this the "partitioning granularity" configured per octant policy.
    """
    if granularity < 1:
        raise ValueError(f"granularity must be >= 1, got {granularity}")
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; choose from {sorted(CURVES)}")

    if isinstance(hierarchy_or_map, GridHierarchy):
        wmap = composite_load_map(hierarchy_or_map)
    else:
        wmap = hierarchy_or_map
    return units_from_map(wmap, granularity=granularity, curve=curve)


def _block_loads(wmap: WorkloadMap, g: int) -> np.ndarray:
    """Block-sum the load map onto the unit lattice (pad to a multiple of g)."""
    shape = wmap.domain.shape
    grid_shape = tuple(-(-s // g) for s in shape)
    padded_shape = tuple(n * g for n in grid_shape)
    if padded_shape != shape:
        padded = np.zeros(padded_shape)
        padded[: shape[0], : shape[1], : shape[2]] = wmap.values
    else:
        padded = wmap.values
    return padded.reshape(
        grid_shape[0], g, grid_shape[1], g, grid_shape[2], g
    ).sum(axis=(1, 3, 5))


def units_from_map(
    wmap: WorkloadMap, *, granularity: int, curve: str
) -> CompositeUnits:
    """Build :class:`CompositeUnits` from a precomputed workload map."""
    g = granularity
    block_loads = _block_loads(wmap, g)
    grid_shape = block_loads.shape

    # Curve order over lattice coordinates (memoized by shape + curve).
    nx, ny, nz = grid_shape
    ii, jj, kk = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    flat_ijk = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()])
    order = curve_order(grid_shape, curve)
    curve_position = curve_rank_of_cells(grid_shape, curve)

    return CompositeUnits(
        domain=wmap.domain,
        granularity=g,
        curve=curve,
        grid_shape=grid_shape,  # type: ignore[arg-type]
        ijk=flat_ijk[order],
        loads=block_loads.ravel()[order],
        lattice_index=order,
        curve_position=curve_position,
    )


def rebuild_units(cached: CompositeUnits, wmap: WorkloadMap) -> CompositeUnits:
    """Rebuild units against a new load map, reusing cached geometry.

    The lattice coordinates, curve ordering, and curve positions of
    ``cached`` are pure functions of (domain, granularity, curve) and are
    shared with the returned object; only the block-summed loads are
    recomputed — through the same :func:`_block_loads` routine the full
    build uses, so the result is bit-identical to ``units_from_map``.
    """
    if wmap.domain != cached.domain:
        raise ValueError("rebuild_units requires an unchanged domain")
    block_loads = _block_loads(wmap, cached.granularity)
    return CompositeUnits(
        domain=cached.domain,
        granularity=cached.granularity,
        curve=cached.curve,
        grid_shape=cached.grid_shape,
        ijk=cached.ijk,
        loads=block_loads.ravel()[cached.lattice_index],
        lattice_index=cached.lattice_index,
        curve_position=cached.curve_position,
    )
