"""Frozen scalar reference of the execsim communication-cost kernel.

Verbatim copy of the per-pair scalar loop that
:func:`repro.execsim.costmodel.comm_cost_terms` replaced, taken at the
moment the vectorized kernel landed.  THE FREEZE RULE applies
(see this package's ``__init__``): never edit to make a differential
pass.
"""

from __future__ import annotations

import numpy as np

_OTHER_AXES = ((1, 2), (0, 2), (0, 1))


def comm_cost_terms(
    i: np.ndarray,
    j: np.ndarray,
    axis: np.ndarray,
    assignment: np.ndarray,
    shapes: np.ndarray,
    loads: np.ndarray,
    num_procs: int,
    ghost_width: float,
    bytes_per_comm_unit: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    comm_bytes = np.zeros(num_procs)
    neighbor_count = np.zeros(num_procs)
    n = int(len(i))
    cut_bytes: list[float] = []
    cut_oi: list[int] = []
    cut_oj: list[int] = []
    face_sum = 0.0
    pairs: set[tuple[int, int]] = set()
    for k in range(n):
        ui = int(i[k])
        uj = int(j[k])
        oi = int(assignment[ui])
        oj = int(assignment[uj])
        if oi == oj:
            continue
        o1, o2 = _OTHER_AXES[int(axis[k])]
        a = min(int(shapes[ui, o1]), int(shapes[uj, o1]))
        b = min(int(shapes[ui, o2]), int(shapes[uj, o2]))
        face = float(a * b)
        cells_i = float(
            int(shapes[ui, 0]) * int(shapes[ui, 1]) * int(shapes[ui, 2])
        )
        cells_j = float(
            int(shapes[uj, 0]) * int(shapes[uj, 1]) * int(shapes[uj, 2])
        )
        di = float(loads[ui]) / max(cells_i, 1.0)
        dj = float(loads[uj]) / max(cells_j, 1.0)
        vol = face * 0.5 * (di + dj) * ghost_width
        cut_bytes.append(vol * bytes_per_comm_unit)
        cut_oi.append(oi)
        cut_oj.append(oj)
        face_sum += face
        pairs.add((min(oi, oj), max(oi, oj)))
    for k, b in enumerate(cut_bytes):
        comm_bytes[cut_oi[k]] += b
    for k, b in enumerate(cut_bytes):
        comm_bytes[cut_oj[k]] += b
    for p, q in pairs:
        neighbor_count[p] += 1.0
        neighbor_count[q] += 1.0
    ghost_work = face_sum * ghost_width if cut_bytes else 0.0
    return comm_bytes, neighbor_count, ghost_work
