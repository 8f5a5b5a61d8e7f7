"""Kernel microbenchmark snapshot — emits ``BENCH_kernels.json``.

Times every partitioning kernel against its frozen scalar oracle under
``tests/reference/`` on seeded synthetic inputs, asserts the pay-off the
vector kernels promised (sequence partitioning >= 3x at 1e5 units; the
fragment count, the refined mask, cut scoring and the RM3D-shaped load
map >= 3x on the reference lattice; the pBD-ISP dissection of a
reference-shaped cube >= 1x; the NWS forecaster ensemble fed without
reads and read after every value), and writes the machine-readable
snapshot the ``python -m repro benchdiff``
CI gate compares against.  ``wall_scalar_s`` is the oracle's time and
``wall_vector_s`` the in-tree kernel's; wall-clock and speedup entries
live under key names the gate's default ignore rules skip, while the
``match`` booleans and output digests are gated exactly, so a semantics
drift fails CI even if timing noise hides it locally.

Inputs are generated from ``np.random.default_rng(seed).random()`` only
— the one generator method with a version-stable stream — so the
digests in a committed baseline stay reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.amr.box import Box
from repro.amr.grid import Level, Patch
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import Regridder, RegridPolicy
from repro.amr.workload import composite_load_map
from repro.execsim.costmodel import CostModel, comm_cost_terms
from repro.monitoring import forecasting
from repro.partitioners import PBDISPPartitioner, build_units
from repro.partitioners.base import Partition
from repro.partitioners.gmisp import variable_grain_segments
from repro.partitioners.metrics import _comm_volume
from repro.partitioners.pbd_isp import pbd_partition_cube
from repro.partitioners.sequence import (
    greedy_sequence_partition,
    optimal_sequence_partition,
    weighted_sequence_partition,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_PATH = REPO_ROOT / "BENCH_kernels.json"

#: the acceptance floor for the sequence kernels at the largest size
MIN_SEQUENCE_SPEEDUP = 3.0

#: unit counts for the 1-D sequence kernels (largest drives the gate)
SIZES = (1_000, 10_000, 100_000)

PROCS = 64
REPEATS = 3
SEED = 0

#: lattice shape for the pBD dissection kernel
PBD_SHAPE = (32, 32, 32)

#: base-domain shape for the composite load-map kernel
WORKLOAD_SHAPE = (64, 32, 32)

#: the reference RM3D lattice (granularity 1) for the PAC-metric kernels
METRIC_SHAPE = (128, 32, 32)

#: acceptance floor of the fragment-count, refined-mask, cut-scoring and
#: load-map kernels
MIN_METRIC_SPEEDUP = 3.0

#: (patch count, extent spread in the level's own cells) of each refined
#: level of the RM3D-shaped load-map hierarchy
RM3D_LEVELS = ((100, 16), (130, 30), (110, 48))

#: refined blobs in the reference-shaped pBD cube, and the acceptance
#: floor of its dissection against the oracle's (it read 1.39-1.54x over
#: ten runs on a 2-core host; the floor sits over 25% below the slowest)
PBD_BLOBS = 12
MIN_PBD_SPEEDUP = 1.0

#: values fed to each forecaster-ensemble case, fewer than the ensemble
#: queues unscored, so the write-only case times the queueing a stream
#: nobody reads pays
FORECAST_VALUES = 300

#: acceptance floors of the forecaster ensemble against its oracle, each
#: over 25% below the slowest of 22 runs on a shared 2-core host
#: (write-only read 319-697x, a read after every value 1.23-3.14x)
MIN_FORECAST_WRITE_SPEEDUP = 200.0
MIN_FORECAST_READ_SPEEDUP = 0.9


def _digest(values: np.ndarray) -> str:
    payload = ",".join(str(v) for v in np.asarray(values).reshape(-1).tolist())
    return hashlib.sha256(payload.encode()).hexdigest()


def _best_of(fn):
    """(best wall seconds, last result) over ``REPEATS`` calls."""
    best = math.inf
    out = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _pair(oracle, kernel, output=np.asarray) -> dict:
    """Time the oracle and the in-tree kernel and compare the outputs;
    ``output`` maps a call's result to the compared array, untimed."""
    wall_s, ref = _best_of(oracle)
    wall_v, out = _best_of(kernel)
    ref, out = output(ref), output(out)
    return {
        "wall_scalar_s": wall_s,
        "wall_vector_s": wall_v,
        "speedup": wall_s / wall_v if wall_v > 0 else float("inf"),
        "match": bool(np.array_equal(np.asarray(ref), np.asarray(out))),
        "digest": _digest(out),
    }


def _sequence_loads(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random loads with a few deterministic heavy spikes."""
    loads = rng.random(n)
    loads[:: max(n // 7, 1)] *= 100.0
    return loads


def _bench_hierarchies(rng: np.random.Generator) -> dict:
    """Named hierarchies spanning the patch-count regimes.

    ``bulky``: a noise field clustered into few large patches (slice adds
    are near-optimal there); ``spiky``: sparse isolated spikes clustered
    into many small patches (the per-patch dispatch overhead the scatter
    kernel removes).
    """
    domain = Box((0, 0, 0), WORKLOAD_SHAPE)
    noise = rng.random(domain.shape)
    bulky = Regridder(
        domain, RegridPolicy(thresholds=(0.55, 0.85))
    ).regrid(noise)
    spikes = np.where(rng.random(domain.shape) > 0.985, 1.0, 0.0)
    spiky = Regridder(domain, RegridPolicy(thresholds=(0.5,))).regrid(spikes)
    return {"bulky": bulky, "spiky": spiky}


def _rm3d_like_hierarchy(rng: np.random.Generator) -> GridHierarchy:
    """One base patch over the reference lattice and three ratio-2 levels
    of one to two hundred small patches each, shaped like an RM3D snapshot:
    the base level holds most of the cells the load map lands."""
    domain = Box((0, 0, 0), METRIC_SHAPE)
    levels = [Level(index=0, ratio=1, patches=[
        Patch(domain, level=0, patch_id=0, load_per_cell=1.0 + rng.random()),
    ])]
    for index, (count, spread) in enumerate(RM3D_LEVELS, start=1):
        fine = np.asarray(METRIC_SHAPE) * 2 ** index
        extent = 2 + (rng.random((count, 3)) * spread).astype(int)
        lo = (rng.random((count, 3)) * (fine - extent)).astype(int)
        loads = 1.0 + rng.random(count)
        levels.append(Level(index=index, ratio=2, patches=[
            Patch(Box(tuple(a), tuple(b)), level=index, patch_id=k,
                  load_per_cell=w)
            for k, (a, b, w) in enumerate(zip(
                lo.tolist(), (lo + extent).tolist(), loads.tolist()
            ))
        ]))
    return GridHierarchy(domain=domain, levels=levels)


def _rm3d_like_cube() -> np.ndarray:
    """A load cube on the reference lattice, shaped like an RM3D snapshot's:
    unit load everywhere, and ``PBD_BLOBS`` refined blobs whose cells carry
    the composite load of one to three ratio-2 levels (``2**4`` per level)
    over a random per-blob load.  Drawn from its own seeded generator, so
    it leaves the other kernels' inputs as they were."""
    rng = np.random.default_rng(SEED)
    cube = np.ones(METRIC_SHAPE)
    shape = np.asarray(METRIC_SHAPE)
    x, y, z = np.indices(METRIC_SHAPE)
    for _ in range(PBD_BLOBS):
        center = rng.random(3) * shape
        radius = 2.0 + rng.random(3) * shape / 6
        depth = 1 + int(rng.random() * 3)
        inside = (
            ((x - center[0]) / radius[0]) ** 2
            + ((y - center[1]) / radius[1]) ** 2
            + ((z - center[2]) / radius[2]) ** 2
        ) <= 1.0
        cube[inside] += (1.0 + rng.random()) * 16.0**depth
    return cube


def _metric_kernels(
    rng: np.random.Generator, ref_metrics, ref_costmodel, ref_geometry
) -> dict:
    """PAC comm volume, cut scoring, fragment count and refined mask.

    Sparse spikes on the reference lattice, regridded into many small
    patches (as the RM3D trace's mixing structures are), units at
    granularity 1 and a ``PROCS``-way pBD-ISP partition; the geometry
    memo is warmed before timing, as it is on every regrid after the
    first.  A partition holds its cut once found, so the comm-volume and
    cut-scoring kernels rebuild the partition inside the timed call:
    they time finding the cut, not a cache hit.  ``cut_scoring`` is what
    one regrid pays for the cut: the PAC comm volume plus the cost
    model's comm terms, against the two all-pairs oracles.
    """
    domain = Box((0, 0, 0), METRIC_SHAPE)
    spikes = np.where(rng.random(domain.shape) > 0.985, 1.0, 0.0)
    hierarchy = Regridder(
        domain, RegridPolicy(thresholds=(0.5,))
    ).regrid(spikes)
    units = build_units(hierarchy, granularity=1)
    part = PBDISPPartitioner().partition(units, PROCS)
    i, j, axis = ref_geometry.adjacency_arrays(units)
    shapes = ref_geometry.unit_shapes(units)
    cost = CostModel()
    widths = (cost.ghost_width, cost.bytes_per_comm_unit)

    def fresh() -> Partition:
        return Partition(
            units=units, num_procs=PROCS, assignment=part.assignment,
            partitioner_name=part.partitioner_name,
        )

    def scores(volume, terms) -> np.ndarray:
        comm_bytes, neighbor_count, ghost_work = terms
        return np.concatenate([[volume], comm_bytes, neighbor_count, [ghost_work]])

    def cut_scoring() -> np.ndarray:
        cut = fresh().cut()
        return scores(
            _comm_volume(cut), comm_cost_terms(cut, PROCS, *widths)
        )

    def cut_scoring_oracle() -> np.ndarray:
        return scores(
            ref_metrics.comm_volume(
                i, j, axis, part.assignment, shapes, units.loads
            ),
            ref_costmodel.comm_cost_terms(
                i, j, axis, part.assignment, shapes, units.loads,
                PROCS, *widths,
            ),
        )

    return {
        "pac_comm": {"ref128": _pair(
            lambda: ref_metrics.comm_volume(
                i, j, axis, part.assignment, shapes, units.loads
            ),
            lambda: _comm_volume(fresh().cut()),
        )},
        "cut_scoring": {"ref128": _pair(cut_scoring_oracle, cut_scoring)},
        "rect_fragments": {"ref128": _pair(
            lambda: ref_metrics.rect_fragments(part.owner_lattice()),
            part.rect_fragments,
        )},
        "refined_mask": {"ref128": _pair(
            lambda: ref_metrics.refined_mask(hierarchy),
            hierarchy.refined_mask,
        )},
    }


def _bits(values) -> np.ndarray:
    """Float values as their IEEE bit patterns, so a match is exact."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _forecast_kernels(ref_forecasting) -> dict:
    """The forecaster ensemble against its oracle on a spiky CPU-like
    series, fed without reads (``ensemble_write``: the final state is
    read after timing) and read after every value (``ensemble_read``).
    The series comes from its own seeded generator, so it leaves the
    other kernels' inputs as they were.  The entries carry no digest:
    the autoregressive predictor's ``lstsq`` forecasts carry the BLAS
    build's rounding, so only the in-process ``match`` is host-stable."""
    u = np.random.default_rng(SEED).random((2, FORECAST_VALUES))
    series = 0.7 + 0.02 * (u[0] - 0.5)
    series[u[1] > 0.94] = 0.05
    series = series.tolist()

    def write(module):
        ens = module.ForecasterEnsemble(module.default_ensemble())
        for v in series:
            ens.update(v)
        return ens

    def state(ens) -> np.ndarray:
        return _bits([
            ens.best_index, ens.predict(),
            *ens.postcast_errors().values(),
            *(p.predict() for p in ens.predictors),
        ])

    def read(module) -> np.ndarray:
        ens = module.ForecasterEnsemble(module.default_ensemble())
        out = []
        for v in series:
            ens.update(v)
            out += (ens.best_index, ens.predict())
        return _bits(out)

    entries = {
        "ensemble_write": _pair(
            lambda: write(ref_forecasting), lambda: write(forecasting),
            output=state,
        ),
        "ensemble_read": _pair(
            lambda: read(ref_forecasting), lambda: read(forecasting),
        ),
    }
    for entry in entries.values():
        del entry["digest"]
    return entries


def test_kernels_bench_snapshot(reference):
    ref_sequence = reference("ref_sequence")
    ref_gmisp = reference("ref_gmisp")
    ref_pbd = reference("ref_pbd")
    ref_workload = reference("ref_workload")
    ref_metrics = reference("ref_metrics")
    ref_costmodel = reference("ref_costmodel")

    rng = np.random.default_rng(SEED)
    kernels: dict = {
        "greedy": {}, "weighted": {}, "optimal": {}, "gmisp_segments": {},
    }
    for n in SIZES:
        loads = _sequence_loads(rng, n)
        capacities = rng.random(PROCS) + 0.05
        key = f"n{n}"
        kernels["greedy"][key] = _pair(
            lambda: ref_sequence.greedy_sequence_partition(loads, PROCS),
            lambda: greedy_sequence_partition(loads, PROCS),
        )
        kernels["weighted"][key] = _pair(
            lambda: ref_sequence.weighted_sequence_partition(
                loads, PROCS, capacities
            ),
            lambda: weighted_sequence_partition(loads, PROCS, capacities),
        )
        kernels["optimal"][key] = _pair(
            lambda: ref_sequence.optimal_sequence_partition(loads, PROCS),
            lambda: optimal_sequence_partition(loads, PROCS),
        )
        kernels["gmisp_segments"][key] = _pair(
            lambda: ref_gmisp.variable_grain_segments(loads, PROCS, 64, 0.25),
            lambda: variable_grain_segments(loads, PROCS, 64, 0.25),
        )

    cube = rng.random(PBD_SHAPE)
    ref128 = _rm3d_like_cube()
    kernels["pbd"] = {
        "cube32": _pair(
            lambda: ref_pbd.pbd_partition_cube(cube, PROCS),
            lambda: pbd_partition_cube(cube, PROCS),
        ),
        "ref128": _pair(
            lambda: ref_pbd.pbd_partition_cube(ref128, PROCS),
            lambda: pbd_partition_cube(ref128, PROCS),
        ),
    }
    kernels["workload"] = {
        name: _pair(
            lambda h=h: ref_workload.composite_values(h),
            lambda h=h: composite_load_map(h).values,
        )
        for name, h in _bench_hierarchies(rng).items()
    }
    kernels.update(_metric_kernels(
        rng, ref_metrics, ref_costmodel, reference("ref_geometry")
    ))
    rm3d = _rm3d_like_hierarchy(rng)
    kernels["load_map"] = {"rm3d": _pair(
        lambda: ref_workload.composite_values(rm3d),
        lambda: composite_load_map(rm3d).values,
    )}

    kernels["forecast"] = _forecast_kernels(reference("ref_forecasting"))

    largest = f"n{max(SIZES)}"
    doc = {
        "meta": {
            "seed": SEED,
            "procs": PROCS,
            "repeats": REPEATS,
            "sizes": list(SIZES),
        },
        "kernels": kernels,
        "gate": {
            "largest_n": max(SIZES),
            "greedy_speedup_at_largest": kernels["greedy"][largest]["speedup"],
            "weighted_speedup_at_largest":
                kernels["weighted"][largest]["speedup"],
            "cut_scoring_speedup":
                kernels["cut_scoring"]["ref128"]["speedup"],
            "rect_fragments_speedup":
                kernels["rect_fragments"]["ref128"]["speedup"],
            "refined_mask_speedup":
                kernels["refined_mask"]["ref128"]["speedup"],
            "load_map_speedup": kernels["load_map"]["rm3d"]["speedup"],
            "pbd_ref128_speedup": kernels["pbd"]["ref128"]["speedup"],
            "forecast_write_speedup":
                kernels["forecast"]["ensemble_write"]["speedup"],
            "forecast_read_speedup":
                kernels["forecast"]["ensemble_read"]["speedup"],
            "all_match": all(
                entry["match"]
                for kern in kernels.values()
                for entry in kern.values()
            ),
        },
    }

    gate = doc["gate"]
    assert gate["all_match"], "kernel output diverged from its oracle"
    assert gate["largest_n"] >= 100_000
    assert gate["greedy_speedup_at_largest"] >= MIN_SEQUENCE_SPEEDUP, (
        f"greedy kernel only {gate['greedy_speedup_at_largest']:.1f}x "
        f"at n={gate['largest_n']}"
    )
    assert gate["weighted_speedup_at_largest"] >= MIN_SEQUENCE_SPEEDUP, (
        f"weighted kernel only {gate['weighted_speedup_at_largest']:.1f}x "
        f"at n={gate['largest_n']}"
    )

    for name in ("cut_scoring", "rect_fragments", "refined_mask", "load_map"):
        speedup = gate[f"{name}_speedup"]
        assert speedup >= MIN_METRIC_SPEEDUP, (
            f"{name} kernel only {speedup:.1f}x over its oracle"
        )

    assert gate["pbd_ref128_speedup"] >= MIN_PBD_SPEEDUP, (
        f"pBD dissection only {gate['pbd_ref128_speedup']:.2f}x over its oracle"
    )

    for case, floor in (("write", MIN_FORECAST_WRITE_SPEEDUP),
                        ("read", MIN_FORECAST_READ_SPEEDUP)):
        speedup = gate[f"forecast_{case}_speedup"]
        assert speedup >= floor, (
            f"forecaster ensemble ({case}) only {speedup:.2f}x over its oracle"
        )

    SNAPSHOT_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
