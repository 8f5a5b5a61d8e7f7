"""Differential tests: the partitioning kernels vs the frozen oracles.

Every kernel on the partitioning hot path must be *bit-identical* to
the scalar loop it replaced.  The oracle is the frozen copy under
``tests/reference/`` (see its freeze rule); each kernel is compared
against it over a randomized corpus and a committed golden corpus of
serialized hierarchies + partition digests under ``tests/golden/``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.grid import Level, Patch
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import Regridder, RegridPolicy
from repro.amr.workload import VECTOR_MIN_PATCHES, WorkloadMap, composite_load_map
from repro.partitioners import PARTITIONER_REGISTRY, build_units
from repro.partitioners.base import Partition
from repro.partitioners.gmisp import variable_grain_segments
from repro.partitioners.metrics import _comm_volume
from repro.partitioners.pbd_isp import pbd_partition_cube
from repro.partitioners.sequence import (
    greedy_sequence_partition,
    optimal_sequence_partition,
    weighted_sequence_partition,
)

TESTS = Path(__file__).parent


def _load_reference(name: str):
    path = TESTS / "reference" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ref_sequence = _load_reference("ref_sequence")
ref_gmisp = _load_reference("ref_gmisp")
ref_pbd = _load_reference("ref_pbd")
ref_workload = _load_reference("ref_workload")
ref_metrics = _load_reference("ref_metrics")


def digest(arr: np.ndarray) -> str:
    """Byte-exact sha256 of an array (int64 for owners, float64 for loads)."""
    arr = np.asarray(arr)
    dtype = np.float64 if np.issubdtype(arr.dtype, np.floating) else np.int64
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()
    ).hexdigest()


# -- randomized corpora -------------------------------------------------------


def _loads_corpus(rng: np.random.Generator):
    """(loads, p) cases spanning the shapes the partitioners meet."""
    cases = []
    for n, p in [(1, 1), (3, 5), (7, 3), (64, 8), (100, 7), (250, 16), (997, 31)]:
        loads = rng.random(n)
        cases.append((loads, p))
        spiky = loads.copy()
        spiky[:: max(n // 5, 1)] *= 200.0
        cases.append((spiky, p))
        sparse = loads * (rng.random(n) > 0.6)
        cases.append((sparse, p))
    cases.append((np.zeros(40), 6))        # degenerate: no load at all
    cases.append((np.ones(12), 12))        # exactly one unit per processor
    cases.append((np.ones(5), 9))          # fewer units than processors
    return cases


def _capacities_corpus(rng: np.random.Generator, p: int):
    caps = [np.ones(p), rng.random(p) + 0.05]
    if p > 1:
        zeroed = rng.random(p) + 0.5
        zeroed[:: 2] = 0.0                 # half the nodes unavailable
        caps.append(zeroed)
    return caps


def _hierarchy_corpus():
    """Regridded hierarchies: blob, bulky noise, sparse spikes."""
    rng = np.random.default_rng(42)
    out = []

    blob_domain = Box((0, 0, 0), (32, 16, 16))
    err = np.zeros(blob_domain.shape)
    err[6:14, 4:10, 4:10] = 0.6
    err[8:12, 5:8, 5:8] = 0.95
    out.append(
        Regridder(blob_domain, RegridPolicy(thresholds=(0.3, 0.8))).regrid(err)
    )

    noise_domain = Box((0, 0, 0), (24, 24, 12))
    noise = rng.random(noise_domain.shape)
    out.append(
        Regridder(noise_domain, RegridPolicy(thresholds=(0.55, 0.85))).regrid(noise)
    )

    sparse_domain = Box((0, 0, 0), (32, 32, 16))
    spikes = (rng.random(sparse_domain.shape) > 0.985).astype(float)
    out.append(
        Regridder(sparse_domain, RegridPolicy(thresholds=(0.5,))).regrid(spikes)
    )
    return out


# -- sequence kernels ---------------------------------------------------------


class TestSequenceDifferential:
    def test_greedy_matches_oracle(self):
        rng = np.random.default_rng(1234)
        for loads, p in _loads_corpus(rng):
            got = greedy_sequence_partition(loads, p)
            want = ref_sequence.greedy_sequence_partition(loads, p)
            np.testing.assert_array_equal(got, want)

    def test_optimal_matches_oracle(self):
        rng = np.random.default_rng(5678)
        for loads, p in _loads_corpus(rng):
            got = optimal_sequence_partition(loads, p)
            want = ref_sequence.optimal_sequence_partition(loads, p)
            np.testing.assert_array_equal(got, want)

    def test_weighted_matches_oracle(self):
        rng = np.random.default_rng(91011)
        for loads, p in _loads_corpus(rng):
            for caps in _capacities_corpus(rng, p):
                got = weighted_sequence_partition(loads, p, caps)
                want = ref_sequence.weighted_sequence_partition(loads, p, caps)
                np.testing.assert_array_equal(got, want)


# -- G-MISP segmentation ------------------------------------------------------


class TestGMISPDifferential:
    def test_segments_match_oracle(self):
        rng = np.random.default_rng(1415)
        for loads, p in _loads_corpus(rng):
            for coarse in (4, 16, 64):
                for split_factor in (0.25, 1.0):
                    got = variable_grain_segments(loads, p, coarse, split_factor)
                    want = ref_gmisp.variable_grain_segments(
                        loads, p, coarse, split_factor
                    )
                    np.testing.assert_array_equal(got, want)


# -- pBD-ISP dissection -------------------------------------------------------


class TestPBDDifferential:
    CUBES = [(8, 8, 8), (16, 8, 4), (5, 7, 3), (2, 2, 2), (1, 9, 1)]

    def test_cube_owners_match_oracle(self):
        rng = np.random.default_rng(1617)
        for shape in self.CUBES:
            for procs in (1, 2, 3, 7, 13):
                cube = rng.random(shape)
                got = pbd_partition_cube(cube, procs)
                want = ref_pbd.pbd_partition_cube(cube, procs)
                np.testing.assert_array_equal(got, want)

    def test_zero_load_cube(self):
        got = pbd_partition_cube(np.zeros((6, 4, 2)), 5)
        want = ref_pbd.pbd_partition_cube(np.zeros((6, 4, 2)), 5)
        np.testing.assert_array_equal(got, want)


# -- composite load map -------------------------------------------------------


class TestWorkloadDifferential:
    def test_values_match_oracle(self):
        hierarchies = _hierarchy_corpus()
        # the patch count alone picks the accumulation: the corpus must
        # exercise both the per-patch loop and the batched scatter
        assert any(h.num_patches < VECTOR_MIN_PATCHES for h in hierarchies)
        assert any(h.num_patches >= VECTOR_MIN_PATCHES for h in hierarchies)
        for hierarchy in hierarchies:
            got = composite_load_map(hierarchy).values
            want = ref_workload.composite_values(hierarchy)
            np.testing.assert_array_equal(got, want)


# -- PAC metric: comm volume, fragment count, refined mask ---------------------

#: (domain, granularity, curve) lattices for the owner-pattern corpus
LATTICES = [
    (Box((0, 0, 0), (16, 8, 4)), 1, "hilbert"),
    (Box((0, 0, 0), (12, 10, 6)), 1, "morton"),
    (Box((0, 0, 0), (9, 1, 5)), 1, "hilbert"),     # ny == 1
    (Box((0, 0, 0), (7, 5, 1)), 1, "morton"),      # nz == 1
    (Box((0, 0, 0), (10, 6, 6)), 4, "hilbert"),    # clipped edge units
    (Box((2, 3, 1), (15, 10, 8)), 3, "morton"),    # offset domain, clipped
    (Box((0, 0, 0), (1, 1, 1)), 1, "hilbert"),     # a single unit
]


def _owner_cases(rng: np.random.Generator):
    """Partitions with hand-shaped owner lattices on every lattice."""
    for domain, g, curve in LATTICES:
        loads = rng.random(domain.shape) * (rng.random(domain.shape) > 0.3)
        units = build_units(WorkloadMap(domain, loads), granularity=g, curve=curve)
        x, y, z = np.indices(units.grid_shape)
        lattices = {
            "single": np.zeros(units.grid_shape, dtype=int),
            "checkerboard": (x + y + z) % 2,
            "random": (rng.random(units.grid_shape) * 5).astype(int),
            # equal x-runs repeated across y: runs that merge
            "blocky": (x // 3 + 2 * (y // 2) + z // 2) % 4,
            "slab": (x >= units.grid_shape[0] // 2).astype(int),
        }
        for name, lat in lattices.items():
            part = Partition(
                units=units,
                num_procs=int(lat.max()) + 1,
                assignment=lat.ravel()[units.lattice_index],
                partitioner_name=name,
            )
            assert np.array_equal(part.owner_lattice(), lat)
            yield part


def _partitioned_cases(hierarchies):
    for hierarchy in hierarchies:
        for g in (1, 2):
            units = build_units(hierarchy, granularity=g)
            for cls in PARTITIONER_REGISTRY.values():
                yield cls().partition(units, 7)


def _assert_metrics_match(part: Partition) -> None:
    units = part.units
    i, j, axis = units.adjacency_arrays()
    assert part.rect_fragments() == ref_metrics.rect_fragments(
        part.owner_lattice()
    )
    assert _comm_volume(part) == ref_metrics.comm_volume(
        i, j, axis, part.assignment, units.unit_shapes(), units.loads
    )


def _clipped_hierarchy() -> GridHierarchy:
    """Offset domain; fine patches past every domain face, an empty level."""
    domain = Box((4, 0, 2), (20, 8, 10))
    fine = Level(index=1, ratio=2, patches=[
        Patch(Box((6, -4, 3), (15, 9, 9)), level=1, patch_id=0),
        Patch(Box((33, 10, 18), (48, 20, 24)), level=1, patch_id=1),
        Patch(Box((-10, -10, -10), (-2, -2, -2)), level=1, patch_id=2),
        Patch(Box((13, 1, 7), (14, 2, 8)), level=1, patch_id=3),
    ])
    finer = Level(index=2, ratio=2)
    finest = Level(index=3, ratio=4, patches=[
        Patch(Box((70, 9, 33), (170, 30, 41)), level=3, patch_id=0),
    ])
    base = Level(index=0, ratio=1, patches=[Patch(domain, level=0, patch_id=0)])
    return GridHierarchy(domain=domain, levels=[base, fine, finer, finest])


class TestMetricDifferential:
    def test_owner_lattices_match_oracle(self):
        for part in _owner_cases(np.random.default_rng(2021)):
            _assert_metrics_match(part)

    def test_partitions_match_oracle(self):
        for part in _partitioned_cases(_hierarchy_corpus()):
            _assert_metrics_match(part)

    def test_unit_shapes_are_clipped_boxes(self):
        for domain, g, curve in LATTICES:
            units = build_units(
                WorkloadMap(domain, np.ones(domain.shape)),
                granularity=g, curve=curve,
            )
            boxes = np.array(
                [units.unit_box(k).shape for k in range(len(units))]
            )
            np.testing.assert_array_equal(units.unit_shapes(), boxes)
            np.testing.assert_array_equal(units.unit_cells(), boxes.prod(axis=1))

    def test_refined_mask_matches_oracle(self):
        hierarchies = _hierarchy_corpus() + [_clipped_hierarchy()]
        for hierarchy in hierarchies:
            np.testing.assert_array_equal(
                hierarchy.refined_mask(), ref_metrics.refined_mask(hierarchy)
            )
        # the clipped corpus really clips: some cells set, not all
        mask = _clipped_hierarchy().refined_mask()
        assert 0 < mask.sum() < mask.size


# -- golden corpus ------------------------------------------------------------

# costmodel.json is the comm-cost kernel corpus (different schema) owned
# by tests/test_execsim_kernels.py; api_surface.json is the public-API
# snapshot owned by tests/test_api_surface.py; simtest_seeds.json is the
# simulation-fuzzer seed corpus owned by tests/test_simtest.py.
GOLDEN = sorted(
    p for p in (TESTS / "golden").glob("*.json")
    if p.name not in ("costmodel.json", "api_surface.json",
                      "simtest_seeds.json")
)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_corpus(path):
    doc = json.loads(path.read_text())
    hierarchy = GridHierarchy.from_dict(doc["hierarchy"])
    workload = composite_load_map(hierarchy)
    assert digest(workload.values) == doc["workload_digest"]
    assert digest(ref_workload.composite_values(hierarchy)) == (
        doc["workload_digest"]
    )
    units = build_units(hierarchy, granularity=doc["granularity"])
    for name, want in doc["partitions"].items():
        part = PARTITIONER_REGISTRY[name]().partition(units, doc["num_procs"])
        assert digest(part.assignment) == want, (
            f"{name} drifted from golden digest"
        )


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_corpus_metrics(path):
    doc = json.loads(path.read_text())
    hierarchy = GridHierarchy.from_dict(doc["hierarchy"])
    np.testing.assert_array_equal(
        hierarchy.refined_mask(), ref_metrics.refined_mask(hierarchy)
    )
    units = build_units(hierarchy, granularity=doc["granularity"])
    for cls in PARTITIONER_REGISTRY.values():
        _assert_metrics_match(cls().partition(units, doc["num_procs"]))


def test_golden_corpus_exists():
    assert len(GOLDEN) >= 2
    for path in GOLDEN:
        doc = json.loads(path.read_text())
        assert set(doc["partitions"]) == set(PARTITIONER_REGISTRY)
