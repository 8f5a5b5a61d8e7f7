"""Hierarchy diffing for the incremental regrid path.

SAMR adaptation is localized: successive regrid snapshots differ in a
handful of patches while the bulk of the hierarchy — and everything
derived from it (composite load map, unit arrays, SFC orderings,
adjacency) — is unchanged.  :func:`diff_hierarchies` compares two
hierarchies structurally and reports the *dirty region*: the base-grid
cells whose composite load could differ.  Consumers (the execution
simulator's :class:`~repro.execsim.reuse.UnitsReuseCache`) recompute only
that region and reuse the rest, bit-identically to a full recompute.

Patches are matched by value — ``(level, box, load_per_cell)`` — not by
``patch_id``, because regridders renumber ids freely.  Matching is
order-sensitive: floating-point accumulation order is part of the
composite-load-map contract, so when the surviving patches of a level
appear in a different relative order than before, the whole level is
conservatively marked dirty rather than risking a reordered sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.amr.grid import Patch
from repro.amr.hierarchy import GridHierarchy, mark_footprints

__all__ = ["HierarchyDiff", "diff_hierarchies", "patch_signature"]


def patch_signature(patch: Patch) -> tuple:
    """Value identity of a patch for diffing (``patch_id`` excluded)."""
    return (patch.level, patch.box.lo, patch.box.hi, patch.load_per_cell)


@dataclass(slots=True)
class HierarchyDiff:
    """Structural difference between two snapshots' hierarchies.

    ``compatible`` means the incremental path applies: same base domain
    and same refinement ratios on every common level.  ``identical``
    additionally means no patch changed — every derived structure can be
    reused outright.  ``dirty_mask`` (base-grid bool array, present iff
    ``compatible``) marks the cells whose composite load must be
    recomputed; it is all-False iff ``identical``.
    """

    compatible: bool
    identical: bool
    dirty_mask: np.ndarray | None
    #: patches present (by value) in both hierarchies, in order
    unchanged_patches: int
    #: patches added, removed, or conservatively invalidated (reordering)
    changed_patches: int
    #: levels whose entire footprint was invalidated
    dirty_levels: tuple[int, ...] = ()

    @property
    def dirty_fraction(self) -> float:
        """Fraction of base-grid cells in the dirty region (0 when clean)."""
        if self.dirty_mask is None or self.dirty_mask.size == 0:
            return 1.0 if not self.compatible else 0.0
        return float(np.count_nonzero(self.dirty_mask)) / self.dirty_mask.size


def _survivors(
    sigs: list[tuple], common: Counter
) -> tuple[list[tuple], list[int]]:
    """Split one side's signatures into the patches present on both sides
    (their signatures, in order) and the rows of the rest."""
    remaining = dict(common)
    kept: list[tuple] = []
    rows: list[int] = []
    for k, s in enumerate(sigs):
        if remaining.get(s, 0) > 0:
            remaining[s] -= 1
            kept.append(s)
        else:
            rows.append(k)
    return kept, rows


def diff_hierarchies(
    old: GridHierarchy, new: GridHierarchy
) -> HierarchyDiff:
    """Diff two hierarchies into a :class:`HierarchyDiff`.

    Incompatible pairs (different domains, or a common level whose
    refinement ratio changed — which rescales every contribution at and
    below it) report ``compatible=False`` and no dirty mask; callers must
    fall back to a full recompute.
    """
    if old.domain != new.domain:
        return HierarchyDiff(
            compatible=False, identical=False, dirty_mask=None,
            unchanged_patches=0,
            changed_patches=old.num_patches + new.num_patches,
        )
    n_common = min(old.num_levels, new.num_levels)
    for lvl in range(n_common):
        if old.levels[lvl].ratio != new.levels[lvl].ratio:
            return HierarchyDiff(
                compatible=False, identical=False, dirty_mask=None,
                unchanged_patches=0,
                changed_patches=old.num_patches + new.num_patches,
            )

    mask = np.zeros(new.domain.shape, dtype=bool)
    unchanged = 0
    changed = 0
    dirty_levels: list[int] = []

    # Levels present on only one side are wholly dirty.
    for h in (old, new):
        for lvl in h.levels[n_common:]:
            dirty_levels.append(lvl.index)
            mark_footprints(mask, *h.footprints(lvl.index))
            changed += len(lvl)

    for idx in range(n_common):
        old_lvl = old.levels[idx]
        new_lvl = new.levels[idx]
        old_sigs = [patch_signature(p) for p in old_lvl]
        new_sigs = [patch_signature(p) for p in new_lvl]
        if old_sigs == new_sigs:
            unchanged += len(new_sigs)
            continue
        common = Counter(old_sigs) & Counter(new_sigs)
        old_kept, old_rows = _survivors(old_sigs, common)
        new_kept, new_rows = _survivors(new_sigs, common)
        if old_kept != new_kept:
            # Surviving patches were reordered: accumulation order — part
            # of the bit-identity contract — would change, so invalidate
            # the whole level.
            dirty_levels.append(idx)
            mark_footprints(mask, *old.footprints(idx))
            mark_footprints(mask, *new.footprints(idx))
            changed += len(old_sigs) + len(new_sigs)
            continue
        unchanged += len(old_kept)
        for h, rows in ((old, old_rows), (new, new_rows)):
            if rows:
                lo, hi = h.footprints(idx)
                mark_footprints(mask, lo[rows], hi[rows])
                changed += len(rows)

    identical = changed == 0 and old.num_levels == new.num_levels
    return HierarchyDiff(
        compatible=True,
        identical=identical,
        dirty_mask=mask,
        unchanged_patches=unchanged,
        changed_patches=changed,
        dirty_levels=tuple(sorted(set(dirty_levels))),
    )
