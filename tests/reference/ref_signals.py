"""Frozen scalar references of the octant classifier's patch signals.

Verbatim copies (see this package's docstring for THE FREEZE RULE) of
the per-patch loops that the patch-array kernels of
``repro/amr/grid.py`` and ``repro/amr/hierarchy.py`` replaced:

- :func:`level_num_cells` / :func:`level_load` — the ``Level.num_cells``
  and ``Level.load`` properties (builtin ``sum`` over the patches);
- :func:`load_per_coarse_step` — ``GridHierarchy.load_per_coarse_step``
  over :func:`level_load`;
- :func:`adaptation_scatter` — ``GridHierarchy.adaptation_scatter``;
- :func:`comm_to_comp_ratio` — ``GridHierarchy.comm_to_comp_ratio``.

Each takes a duck-typed hierarchy (``domain``, ``levels``,
``cumulative_ratio``) or level (``patches``) whose patches expose
``num_cells``, ``load`` and a box with ``centroid``,
``surface_area()`` and ``shape``.
"""

from __future__ import annotations

import numpy as np


def level_num_cells(level) -> int:
    return sum(p.num_cells for p in level.patches)


def level_load(level) -> float:
    return sum(p.load for p in level.patches)


def load_per_coarse_step(hierarchy) -> float:
    total = 0.0
    for lvl in hierarchy.levels:
        total += level_load(lvl) * hierarchy.cumulative_ratio(lvl.index)
    return total


def adaptation_scatter(hierarchy) -> float:
    pts = []
    weights = []
    for lvl in hierarchy.levels[1:]:
        ratio = hierarchy.cumulative_ratio(lvl.index)
        for p in lvl:
            c = p.box.centroid
            pts.append([x / ratio for x in c])
            weights.append(p.num_cells / ratio**3)
    if not pts:
        return 0.0
    pts_arr = np.asarray(pts, dtype=float)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    center = (pts_arr * w[:, None]).sum(axis=0)
    rms = float(np.sqrt((((pts_arr - center) ** 2).sum(axis=1) * w).sum()))
    # RMS distance from center for a uniform box of shape s is
    # sqrt(sum(s_i^2)/12); use it to normalize to [0, ~1].
    shape = np.asarray(hierarchy.domain.shape, dtype=float)
    uniform_rms = float(np.sqrt((shape**2).sum() / 12.0))
    return min(rms / uniform_rms, 1.0) if uniform_rms > 0 else 0.0


def comm_to_comp_ratio(hierarchy) -> float:
    comp = 0.0
    comm = 0.0
    for lvl in hierarchy.levels[1:]:
        ratio = hierarchy.cumulative_ratio(lvl.index)
        comp += level_load(lvl) * ratio
        comm += sum(p.box.surface_area() for p in lvl) * ratio
    if comp == 0:
        return 0.0
    return comm / comp
