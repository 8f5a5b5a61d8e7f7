"""Integer index-space boxes.

A :class:`Box` is an axis-aligned rectangular region of a 3-D integer
index space, stored half-open: ``lo`` is the first cell, ``hi`` is one past
the last cell in each dimension.  Boxes are the unit of everything in SAMR:
patches are boxes, clustering emits boxes, partitioners split boxes.

Boxes are immutable value objects; all operations return new boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Box"]


def _as_triple(v: Sequence[int], name: str) -> tuple[int, int, int]:
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"{name} must have 3 components, got {v!r}")
    return t  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class Box:
    """Half-open 3-D integer box ``[lo, hi)``.

    Raises ``ValueError`` at construction if any extent is non-positive;
    use :meth:`Box.empty` checks via intersection instead of degenerate
    boxes.
    """

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self) -> None:
        lo = _as_triple(self.lo, "lo")
        hi = _as_triple(self.hi, "hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError(f"box has non-positive extent: lo={lo} hi={hi}")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_shape(cls, shape: Sequence[int], origin: Sequence[int] = (0, 0, 0)) -> "Box":
        """Box of a given ``shape`` anchored at ``origin``."""
        o = _as_triple(origin, "origin")
        s = _as_triple(shape, "shape")
        return cls(o, tuple(oo + ss for oo, ss in zip(o, s)))

    # -- basic geometry --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        """Extent (number of cells) along each dimension."""
        return tuple(h - l for l, h in zip(self.lo, self.hi))  # type: ignore[return-value]

    @property
    def num_cells(self) -> int:
        """Total number of cells in the box."""
        sx, sy, sz = self.shape
        return sx * sy * sz

    @property
    def centroid(self) -> tuple[float, float, float]:
        """Geometric center of the box in index space."""
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))  # type: ignore[return-value]

    def surface_area(self) -> int:
        """Number of boundary faces — proxy for ghost-cell communication volume."""
        sx, sy, sz = self.shape
        return 2 * (sx * sy + sy * sz + sx * sz)

    def contains_point(self, point: Sequence[int]) -> bool:
        """True if the integer cell ``point`` lies inside the box."""
        p = _as_triple(point, "point")
        return all(l <= x < h for x, l, h in zip(p, self.lo, self.hi))

    def contains_box(self, other: "Box") -> bool:
        """True if ``other`` is entirely inside this box."""
        return all(sl <= ol and oh <= sh
                   for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi))

    # -- set-like operations ---------------------------------------------------

    def intersection(self, other: "Box") -> "Box | None":
        """Overlap of two boxes, or ``None`` if they are disjoint."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def intersects(self, other: "Box") -> bool:
        """True if the two boxes share at least one cell."""
        return all(max(a, b) < min(c, d)
                   for a, b, c, d in zip(self.lo, other.lo, self.hi, other.hi))

    def bounding_union(self, other: "Box") -> "Box":
        """Smallest box containing both operands (not a true set union)."""
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Box(lo, hi)

    def subtract(self, other: "Box") -> list["Box"]:
        """Difference ``self \\ other`` as a list of disjoint boxes.

        Standard slab decomposition: peel off up to two slabs per dimension.
        Returns ``[self]`` untouched if the boxes are disjoint.
        """
        inter = self.intersection(other)
        if inter is None:
            return [self]
        pieces: list[Box] = []
        lo = list(self.lo)
        hi = list(self.hi)
        for axis in range(3):
            if lo[axis] < inter.lo[axis]:
                plo, phi = lo.copy(), hi.copy()
                phi[axis] = inter.lo[axis]
                pieces.append(Box(tuple(plo), tuple(phi)))
                lo[axis] = inter.lo[axis]
            if inter.hi[axis] < hi[axis]:
                plo, phi = lo.copy(), hi.copy()
                plo[axis] = inter.hi[axis]
                pieces.append(Box(tuple(plo), tuple(phi)))
                hi[axis] = inter.hi[axis]
        return pieces

    # -- refinement / transformation -------------------------------------------

    def refine(self, ratio: int) -> "Box":
        """Map the box to the next finer index space (multiply by ``ratio``)."""
        if ratio < 1:
            raise ValueError(f"refinement ratio must be >= 1, got {ratio}")
        return Box(tuple(l * ratio for l in self.lo), tuple(h * ratio for h in self.hi))

    def coarsen(self, ratio: int) -> "Box":
        """Map the box to the next coarser index space (floor/ceil divide)."""
        if ratio < 1:
            raise ValueError(f"refinement ratio must be >= 1, got {ratio}")
        lo = tuple(l // ratio for l in self.lo)
        hi = tuple(-(-h // ratio) for h in self.hi)
        return Box(lo, hi)

    def grow(self, cells: int) -> "Box":
        """Expand (or shrink, if negative) the box by ``cells`` on every face."""
        lo = tuple(l - cells for l in self.lo)
        hi = tuple(h + cells for h in self.hi)
        return Box(lo, hi)

    def shift(self, offset: Sequence[int]) -> "Box":
        """Translate the box by an integer ``offset``."""
        o = _as_triple(offset, "offset")
        return Box(tuple(l + d for l, d in zip(self.lo, o)),
                   tuple(h + d for h, d in zip(self.hi, o)))

    # -- splitting --------------------------------------------------------------

    def split(self, axis: int, at: int) -> tuple["Box", "Box"]:
        """Cut the box at index ``at`` along ``axis`` into two boxes."""
        if not (self.lo[axis] < at < self.hi[axis]):
            raise ValueError(
                f"split position {at} outside open interval "
                f"({self.lo[axis]}, {self.hi[axis]}) on axis {axis}"
            )
        hi_a = list(self.hi)
        hi_a[axis] = at
        lo_b = list(self.lo)
        lo_b[axis] = at
        return Box(self.lo, tuple(hi_a)), Box(tuple(lo_b), self.hi)

    def halve_longest(self) -> tuple["Box", "Box"] | None:
        """Split the box in half along its longest axis, or ``None`` if 1 cell."""
        shape = self.shape
        axis = int(np.argmax(shape))
        if shape[axis] < 2:
            return None
        return self.split(axis, self.lo[axis] + shape[axis] // 2)

    def blocks(self, block: Sequence[int]) -> Iterator["Box"]:
        """Tile the box with blocks of shape ``block`` (edge blocks clipped).

        Iteration order is z-fastest (C order over block indices), which the
        composite-grid-unit generator relies on for determinism.
        """
        b = _as_triple(block, "block")
        if any(x < 1 for x in b):
            raise ValueError(f"block extents must be >= 1, got {block!r}")
        for i in range(self.lo[0], self.hi[0], b[0]):
            for j in range(self.lo[1], self.hi[1], b[1]):
                for k in range(self.lo[2], self.hi[2], b[2]):
                    yield Box(
                        (i, j, k),
                        (min(i + b[0], self.hi[0]),
                         min(j + b[1], self.hi[1]),
                         min(k + b[2], self.hi[2])),
                    )

    # -- array bridging ----------------------------------------------------------

    def slices(self, origin: Sequence[int] = (0, 0, 0)) -> tuple[slice, slice, slice]:
        """Numpy slicing tuple for this box inside an array anchored at ``origin``."""
        o = _as_triple(origin, "origin")
        return tuple(slice(l - oo, h - oo)
                     for l, h, oo in zip(self.lo, self.hi, o))  # type: ignore[return-value]

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_dict(cls, d: dict) -> "Box":
        """Inverse of :meth:`to_dict`."""
        return cls(tuple(d["lo"]), tuple(d["hi"]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box(lo={self.lo}, hi={self.hi})"
