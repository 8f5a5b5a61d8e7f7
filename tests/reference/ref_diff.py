"""Frozen per-patch reference of the hierarchy diff's dirty region.

The matching and marking loop of ``repro/amr/diff.py::diff_hierarchies``
as it stood before the level-batched footprints replaced its per-patch
``_mark``: each changed patch is marked with its own
``Box.coarsen(ratio).intersection(domain)`` footprint.  Only compatible
pairs (same domain, same ratios on the common levels) are handled.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def _signature(patch):
    return (patch.level, patch.box.lo, patch.box.hi, patch.load_per_cell)


def _mark(mask, hierarchy, patch):
    ratio = hierarchy.cumulative_ratio(patch.level)
    box = patch.box.coarsen(ratio).intersection(hierarchy.domain)
    if box is not None:
        mask[box.slices(hierarchy.domain.lo)] = True


def _filtered(sigs, common):
    remaining = Counter(common)
    out = []
    for s in sigs:
        if remaining[s] > 0:
            remaining[s] -= 1
            out.append(s)
    return out


def dirty_region(old, new):
    """``(dirty_mask, unchanged, changed, dirty_levels)`` of a compatible pair."""
    mask = np.zeros(new.domain.shape, dtype=bool)
    unchanged = 0
    changed = 0
    dirty_levels = []
    n_common = min(old.num_levels, new.num_levels)
    for h in (old, new):
        for lvl in h.levels[n_common:]:
            dirty_levels.append(lvl.index)
            for p in lvl:
                _mark(mask, h, p)
                changed += 1
    for idx in range(n_common):
        old_lvl = old.levels[idx]
        new_lvl = new.levels[idx]
        old_sigs = [_signature(p) for p in old_lvl]
        new_sigs = [_signature(p) for p in new_lvl]
        if old_sigs == new_sigs:
            unchanged += len(new_sigs)
            continue
        common = Counter(old_sigs) & Counter(new_sigs)
        if _filtered(old_sigs, common) != _filtered(new_sigs, common):
            dirty_levels.append(idx)
            for p in old_lvl:
                _mark(mask, old, p)
            for p in new_lvl:
                _mark(mask, new, p)
            changed += len(old_sigs) + len(new_sigs)
            continue
        unchanged += sum(common.values())
        for h, lvl, sigs in ((old, old_lvl, old_sigs), (new, new_lvl, new_sigs)):
            remaining = Counter(common)
            for p, s in zip(lvl, sigs):
                if remaining[s] > 0:
                    remaining[s] -= 1
                else:
                    _mark(mask, h, p)
                    changed += 1
    return mask, unchanged, changed, tuple(sorted(set(dirty_levels)))
