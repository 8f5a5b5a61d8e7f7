"""Execsim benchmark snapshot — emits ``BENCH_execsim.json``.

Times the comm-cost kernel against its frozen scalar oracle
(``tests/reference/ref_costmodel.py``) on synthetic adjacency problems
up to ~1e5 pairs (the regime a production-sized unit lattice reaches);
the kernel's time includes finding the cut with the all-pairs owner
mask and gathering its record (:func:`repro.partitioners.base.cut_record`),
and replays the regrid reuse cache over the reduced RM3D trace plus a
scripted localized-adaptation trace (:mod:`repro.execsim.bench`).
Asserts the acceptance floors — cost kernel >= 3x the oracle at 1e5
adjacency pairs, nonzero reuse-hit rate on the RM3D trace — and writes
the snapshot the ``python -m repro benchdiff`` CI gate compares.
``wall_scalar_s`` is the oracle's time and ``wall_vector_s`` the
in-tree kernel's.  Wall and speedup leaves use names the gate ignores;
match booleans, hit rates, and digests are gated exactly.

Synthetic inputs derive from ``np.random.default_rng(seed).random()``
only — the one generator method with a version-stable stream — so the
committed digests stay reproducible across machines.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.execsim.bench import run_reuse_bench
from repro.execsim.costmodel import CostModel, comm_cost_terms
from repro.partitioners.base import cut_record

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_PATH = REPO_ROOT / "BENCH_execsim.json"

#: acceptance floor for the cost kernel at the largest pair count
MIN_COST_SPEEDUP = 3.0

#: adjacency-pair counts for the cost kernel (largest drives the gate)
PAIR_COUNTS = (1_000, 10_000, 100_000)

#: processors the synthetic assignments scatter over
PROCS = 64
REPEATS = 3
SEED = 0


def _digest(values: np.ndarray) -> str:
    payload = ",".join(str(v) for v in np.asarray(values).reshape(-1).tolist())
    return hashlib.sha256(payload.encode()).hexdigest()


def _best_of(fn):
    best = math.inf
    out = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _cost_problem(rng: np.random.Generator, n_pairs: int):
    """A synthetic adjacency problem with ~``n_pairs`` cut candidates."""
    n_units = max(n_pairs // 3, 4)
    shapes = (rng.random((n_units, 3)) * 5).astype(int) + 1
    loads = rng.random(n_units) * 40.0
    assignment = (rng.random(n_units) * PROCS).astype(int)
    i = (rng.random(n_pairs) * n_units).astype(int)
    j = (rng.random(n_pairs) * n_units).astype(int)
    axis = (rng.random(n_pairs) * 3).astype(int)
    return i, j, axis, assignment, shapes, loads


def _cost_terms(i, j, axis, assignment, shapes, loads, num_procs,
                ghost_width, bytes_per_comm_unit):
    """The kernel over arbitrary pairs: cut by the all-pairs owner mask."""
    pairs = np.flatnonzero(assignment[i] != assignment[j])
    cut = cut_record(i, j, axis, pairs, assignment, shapes, loads)
    return comm_cost_terms(cut, num_procs, ghost_width, bytes_per_comm_unit)


def test_execsim_bench_snapshot(reference):
    ref_costmodel = reference("ref_costmodel")
    cost = CostModel()
    rng = np.random.default_rng(SEED)

    cost_kernel: dict = {}
    for n_pairs in PAIR_COUNTS:
        args = (
            *_cost_problem(rng, n_pairs), PROCS,
            cost.ghost_width, cost.bytes_per_comm_unit,
        )
        wall_s, ref = _best_of(lambda: ref_costmodel.comm_cost_terms(*args))
        wall_v, out = _best_of(lambda: _cost_terms(*args))
        cost_kernel[f"pairs{n_pairs}"] = {
            "wall_scalar_s": wall_s,
            "wall_vector_s": wall_v,
            "speedup": wall_s / wall_v if wall_v > 0 else float("inf"),
            "match": bool(np.array_equal(ref[0], out[0]))
            and bool(np.array_equal(ref[1], out[1]))
            and ref[2] == out[2],
            "comm_bytes_digest": _digest(out[0]),
            "neighbor_count_digest": _digest(out[1]),
            "ghost_work": out[2],
        }

    reuse = run_reuse_bench()
    largest = f"pairs{max(PAIR_COUNTS)}"
    doc = {
        "meta": {
            "seed": SEED,
            "procs": PROCS,
            "repeats": REPEATS,
            "pair_counts": list(PAIR_COUNTS),
        },
        "cost_kernel": cost_kernel,
        "reuse": reuse,
        "gate": {
            "largest_pairs": max(PAIR_COUNTS),
            "cost_speedup_at_largest": cost_kernel[largest]["speedup"],
            "all_match": all(e["match"] for e in cost_kernel.values())
            and all(e["final_units_match"] for e in reuse.values()),
            "reuse_hit_rate": reuse["rm3d"]["hit_rate"],
        },
    }

    gate = doc["gate"]
    assert gate["all_match"], "kernel output diverged from its oracle"
    assert gate["largest_pairs"] >= 100_000
    assert gate["cost_speedup_at_largest"] >= MIN_COST_SPEEDUP, (
        f"cost kernel only {gate['cost_speedup_at_largest']:.1f}x "
        f"at {gate['largest_pairs']} pairs"
    )
    assert gate["reuse_hit_rate"] > 0.0, (
        "no reuse hits on the RM3D trace — the incremental path never "
        "engaged"
    )
    # the reduced RM3D trace has exactly one cold interval (the first)
    assert reuse["rm3d"]["misses"] == 1
    # the localized trace is the favorable regime: the incremental replay
    # must not be slower than full rebuilds there
    loc = reuse["localized"]
    assert loc["wall_incremental_s"] < loc["wall_full_s"], (
        f"incremental replay ({loc['wall_incremental_s']:.3f}s) slower "
        f"than full rebuilds ({loc['wall_full_s']:.3f}s) on the "
        "localized trace"
    )

    SNAPSHOT_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
