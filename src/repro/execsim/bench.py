"""Execsim benchmark: cross-interval regrid reuse.

``python -m repro execsim-bench`` replays
:class:`~repro.execsim.reuse.UnitsReuseCache` over the reduced RM3D
trace and a scripted localized-adaptation trace, against full unit
rebuilds.  The hit rates and the final-units match are deterministic
properties of the traces (not timings), gated exactly in
``BENCH_execsim.json``; the incremental-vs-full wall comparison is
informational.  ``benchmarks/test_execsim_bench.py`` adds the cost-kernel
timings and writes the document.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

__all__ = ["run_reuse_bench", "render_reuse_bench"]


def _digest(values: np.ndarray) -> str:
    payload = ",".join(str(v) for v in np.asarray(values).reshape(-1).tolist())
    return hashlib.sha256(payload.encode()).hexdigest()


def _localized_trace():
    """A scripted localized-adaptation trace: many static patches, one
    drifting front.

    Each transition dirties only the cells the moving fine patch enters
    or leaves (a few percent of the base grid) while the bulk of the
    refinement — a static tiled region of 64 patches — is unchanged: the
    regime the incremental regrid path is built for.
    """
    from repro.amr.box import Box
    from repro.amr.grid import Level, Patch
    from repro.amr.hierarchy import GridHierarchy
    from repro.amr.trace import AdaptationTrace, Snapshot

    domain = Box((0, 0, 0), (64, 32, 32))
    trace = AdaptationTrace(meta={"app": "localized-front"})
    for k in range(30):
        base = Level(index=0, ratio=1)
        base.add(Patch(box=domain, level=0, patch_id=0))
        fine = Level(index=1, ratio=2)
        pid = 0
        # static tiles fill the lower-z half of the fine index space
        for x in range(0, 128, 16):
            for y in range(0, 64, 16):
                for z in range(0, 32, 16):
                    fine.add(Patch(box=Box((x, y, z), (x + 16, y + 16, z + 16)),
                                   level=1, patch_id=pid, load_per_cell=2.0))
                    pid += 1
        # the moving front lives in the upper-z half, clear of the tiles
        x0 = 2 * (4 + k)
        fine.add(Patch(box=Box((x0, 8, 40), (x0 + 16, 40, 56)),
                       level=1, patch_id=pid, load_per_cell=3.0))
        trace.append(Snapshot(
            step=4 * k,
            hierarchy=GridHierarchy(domain=domain, levels=[base, fine]),
        ))
    return trace


def _replay(trace) -> dict:
    """Incremental vs full unit construction over every snapshot."""
    from repro.execsim.reuse import UnitsReuseCache
    from repro.partitioners.units import build_units

    cache = UnitsReuseCache()
    t0 = time.perf_counter()
    units = None
    for snap in trace:
        units = cache.units_for(snap.hierarchy, granularity=4)
    wall_incremental = time.perf_counter() - t0
    t0 = time.perf_counter()
    full = None
    for snap in trace:
        full = build_units(snap.hierarchy, granularity=4)
    wall_full = time.perf_counter() - t0
    return {
        "snapshots": len(trace),
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": cache.hit_rate,
        "wall_incremental_s": wall_incremental,
        "wall_full_s": wall_full,
        "final_units_match": bool(np.array_equal(units.loads, full.loads)),
        "final_loads_digest": _digest(units.loads),
    }


def run_reuse_bench() -> dict:
    """The ``reuse`` section of ``BENCH_execsim.json``.

    RM3D retunes every patch's load_per_cell each interval (its
    heterogeneous load field), so transitions there exercise the
    high-dirty geometry-reuse path; the synthetic localized trace is the
    favorable regime — a drifting front touching a few percent of the
    base grid per interval.
    """
    from repro.experiments.common import rm3d_small_trace

    return {
        "rm3d": _replay(rm3d_small_trace()),
        "localized": _replay(_localized_trace()),
    }


def render_reuse_bench(reuse: dict) -> str:
    """Human-readable summary of the reuse section."""
    return "\n".join(
        f"reuse[{name}]: {r['hits']}/{r['snapshots']} intervals served "
        f"from cache (hit rate {r['hit_rate']:.3f}), incremental "
        f"{r['wall_incremental_s'] * 1e3:.1f}ms vs full "
        f"{r['wall_full_s'] * 1e3:.1f}ms, "
        f"{'match' if r['final_units_match'] else 'MISMATCH'}"
        for name, r in reuse.items()
    )
