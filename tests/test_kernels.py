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
import itertools
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
ref_signals = _load_reference("ref_signals")
ref_geometry = _load_reference("ref_geometry")


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

    def test_optimal_is_byte_equal_on_ties_and_zeros(self):
        rng = np.random.default_rng(4321)
        cases = []
        for n, p in [(40, 8), (97, 16), (200, 64)]:
            runs = rng.random(n)
            runs[rng.random(n) < 0.5] = 0.0  # runs of equal prefix values
            cases.append((runs, p))
            cases.append((np.repeat(rng.random(n // 4), 4) * 0.1, p))
            cases.append((np.where(rng.random(n) < 0.3, 1.0, 0.0), p))
        cases.append((np.zeros(9) + np.eye(9)[4], 3))  # one load among zeros
        cases.append((np.full(64, 0.1), 64))
        for loads, p in cases:
            got = optimal_sequence_partition(loads, p)
            want = ref_sequence.optimal_sequence_partition(loads, p)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_optimal_is_byte_equal_on_gmisp_segments(self, small_rm3d_trace):
        for snap in small_rm3d_trace:
            units = build_units(snap.hierarchy, granularity=2)
            for procs in (16, 64):
                _, loads = PARTITIONER_REGISTRY["G-MISP+SP"]()._segment_loads(
                    units, procs
                )
                got = optimal_sequence_partition(loads, procs)
                want = ref_sequence.optimal_sequence_partition(loads, procs)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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

    @staticmethod
    def _near_ties():
        """Cubes whose cut errors tie or nearly tie: a marginal summed in
        another order than the oracle's flips their cuts."""
        rng = np.random.default_rng(1718)
        cubes = [np.zeros((8, 4, 4)), np.ones((16, 8, 8)), np.full((12, 6, 6), 0.1)]
        slabs = np.ones((24, 8, 8))
        slabs[rng.permutation(24)[:8]] = 0.3  # equal slabs, reordered
        cubes.append(slabs)
        cubes.append(rng.integers(0, 4, (32, 8, 8)) * 0.1)  # decimal ties
        for shape in [(1, 9, 9), (9, 1, 1), (1, 1, 9), (17, 1, 5), (2, 1, 2)]:
            cubes.append(rng.random(shape))
            cubes.append(np.full(shape, 0.7))
        steps = np.ones((48, 12, 12)) * 1e-3  # six decades of load
        steps[rng.random(steps.shape) < 0.2] = 1e3
        cubes.append(steps)
        return cubes

    def test_near_tie_corpus_is_byte_equal(self):
        for cube in self._near_ties():
            for procs in (2, 5, 16, 64):
                got = pbd_partition_cube(cube, procs)
                want = ref_pbd.pbd_partition_cube(cube, procs)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
                    cube.shape, procs
                )

    def test_small_trace_cubes_are_byte_equal(self, small_rm3d_trace):
        for snap in small_rm3d_trace:
            units = build_units(snap.hierarchy, granularity=2)
            lat = np.empty(len(units))
            lat[units.lattice_index] = units.loads
            cube = lat.reshape(units.grid_shape)
            for procs in (16, 64):
                got = pbd_partition_cube(cube, procs)
                want = ref_pbd.pbd_partition_cube(cube, procs)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
                    snap.step, procs
                )


# -- composite load map -------------------------------------------------------


def _patch_load(rng: np.random.Generator) -> float:
    """A per-cell load spanning six decades, zero one time in six: the
    float sums are order-sensitive, so a reordered accumulation shows."""
    if rng.random() < 1 / 6:
        return 0.0
    return float(rng.random() * 10.0 ** rng.integers(-3, 4))


def _tiled_level(rng, index, ratio, lo, hi, cuts) -> Level:
    """Patches tiling the fine box ``[lo, hi)`` on a grid of random cut
    points, so patch faces fall off the ratio and neighbours share a
    base cell."""
    edges = [
        np.unique(np.r_[lo[a], rng.integers(lo[a] + 1, hi[a], cuts[a]), hi[a]])
        for a in range(3)
    ]
    patches = []
    for x0, x1 in zip(edges[0][:-1].tolist(), edges[0][1:].tolist()):
        for y0, y1 in zip(edges[1][:-1].tolist(), edges[1][1:].tolist()):
            for z0, z1 in zip(edges[2][:-1].tolist(), edges[2][1:].tolist()):
                patches.append(Patch(
                    Box((x0, y0, z0), (x1, y1, z1)), level=index,
                    patch_id=len(patches), load_per_cell=_patch_load(rng),
                ))
    return Level(index=index, ratio=ratio, patches=patches)


def _load_map_corpus():
    """Hierarchies on the batched path (>= VECTOR_MIN_PATCHES patches):
    several base patches, a ratio-1 level above the base, patches off the
    ratio and past the domain, zero loads, and an empty refined level."""
    rng = np.random.default_rng(1919)
    many_base = Box((0, 0, 0), (12, 10, 8))
    ratio1 = Box((2, 1, 3), (12, 9, 9))
    gapped = Box((0, 0, 0), (9, 7, 5))
    return [
        GridHierarchy(domain=many_base, levels=[
            _tiled_level(rng, 0, 1, (0, 0, 0), (12, 10, 8), (3, 1, 0)),
            _tiled_level(rng, 1, 2, (3, 2, 2), (19, 17, 13), (4, 3, 1)),
            _tiled_level(rng, 2, 2, (11, 9, 7), (31, 27, 21), (3, 2, 1)),
        ]),
        GridHierarchy(domain=ratio1, levels=[
            Level(index=0, ratio=1, patches=[Patch(ratio1, level=0, patch_id=0)]),
            _tiled_level(rng, 1, 1, (3, 2, 4), (11, 8, 8), (2, 1, 1)),
            _tiled_level(rng, 2, 2, (7, 5, 9), (21, 15, 15), (4, 3, 1)),
            _tiled_level(rng, 3, 3, (25, 17, 30), (55, 40, 43), (2, 2, 1)),
        ]),
        GridHierarchy(domain=gapped, levels=[
            _tiled_level(rng, 0, 1, (0, 0, 0), (9, 7, 5), (1, 1, 1)),
            _tiled_level(rng, 1, 2, (1, 1, 1), (15, 13, 9), (3, 2, 1)),
            Level(index=2, ratio=2),
            # a region reaching past the domain on every axis
            _tiled_level(rng, 3, 2, (-9, 30, 20), (90, 70, 50), (3, 2, 1)),
        ]),
    ]


def _shares_a_base_cell(hierarchy: GridHierarchy) -> bool:
    """Whether two patches of one refined level land on the same base
    cell, i.e. the map sums two contributions of one level there."""
    for lvl in hierarchy.levels[1:]:
        ratio = hierarchy.cumulative_ratio(lvl.index)
        if ratio == 1:
            continue
        boxes = [p.box.coarsen(ratio) for p in lvl.patches]
        for k, box in enumerate(boxes):
            if any(box.intersection(other) for other in boxes[k + 1:]):
                return True
    return False


def _assert_same_map(hierarchy: GridHierarchy) -> None:
    got = composite_load_map(hierarchy).values
    want = ref_workload.composite_values(hierarchy)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestWorkloadDifferential:
    def test_values_match_oracle(self):
        hierarchies = _hierarchy_corpus()
        # the patch count alone picks the accumulation: the corpus must
        # exercise both the per-patch loop and the batched scatter
        assert any(h.num_patches < VECTOR_MIN_PATCHES for h in hierarchies)
        assert any(h.num_patches >= VECTOR_MIN_PATCHES for h in hierarchies)
        for hierarchy in hierarchies:
            _assert_same_map(hierarchy)

    def test_batched_corpus_matches_oracle(self):
        corpus = _load_map_corpus()
        assert all(h.num_patches >= VECTOR_MIN_PATCHES for h in corpus)
        assert all(_shares_a_base_cell(h) for h in corpus)
        assert any(len(h.levels[0]) > 1 for h in corpus)
        assert any(h.cumulative_ratio(1) == 1 for h in corpus)
        assert any(not lvl.patches for h in corpus for lvl in h.levels)
        assert any(p.load_per_cell == 0.0 for h in corpus
                   for lvl in h.levels[1:] for p in lvl)
        assert any(
            not h.domain.contains_box(p.box.coarsen(h.cumulative_ratio(lvl.index)))
            for h in corpus for lvl in h.levels for p in lvl
        )
        for hierarchy in corpus:
            _assert_same_map(hierarchy)

    def test_small_trace_matches_oracle(self, small_rm3d_trace):
        counts = [s.hierarchy.num_patches for s in small_rm3d_trace]
        assert min(counts) < VECTOR_MIN_PATCHES <= max(counts)
        for snap in small_rm3d_trace:
            _assert_same_map(snap.hierarchy)


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


def _cut_cases():
    """Registry partitions at granularity 1, 2 and 3 (clipped edge units)
    on both curves, plus a single owner and a checkerboard per lattice,
    on a domain at the origin and an offset one."""
    for hierarchy, g, curve in itertools.product(
        (_hierarchy_corpus()[0], _clipped_hierarchy()), (1, 2, 3),
        ("hilbert", "morton"),
    ):
        units = build_units(hierarchy, granularity=g, curve=curve)
        for cls in PARTITIONER_REGISTRY.values():
            yield cls().partition(units, 7)
        x, y, z = np.indices(units.grid_shape)
        for name, lat in (
            ("single", np.zeros(units.grid_shape, dtype=int)),
            ("checkerboard", (x + y + z) % 2),
        ):
            yield Partition(
                units=units, num_procs=2,
                assignment=lat.ravel()[units.lattice_index],
                partitioner_name=name,
            )


def _assert_metrics_match(part: Partition) -> None:
    units = part.units
    i, j, axis = ref_geometry.adjacency_arrays(units)
    assert part.rect_fragments() == ref_metrics.rect_fragments(
        part.owner_lattice()
    )
    assert _comm_volume(part.cut()) == ref_metrics.comm_volume(
        i, j, axis, part.assignment, ref_geometry.unit_shapes(units), units.loads
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

    def test_lattice_cut_is_the_owner_mask(self):
        """The lattice-found cut record is the all-pairs owner mask, with
        the oracles' face areas and densities, byte for byte."""
        checked = set()
        offset = clipped = False
        for part in _cut_cases():
            units = part.units
            i, j, axis = ref_geometry.adjacency_arrays(units)
            shapes = ref_geometry.unit_shapes(units)
            want = np.flatnonzero(part.assignment[i] != part.assignment[j])
            # as the oracles form them, over all pairs
            cells = shapes.prod(axis=1).astype(float)
            dens = units.loads / np.maximum(cells, 1.0)
            other = np.array([[1, 2], [0, 2], [0, 1]])[axis]
            rows = np.arange(axis.size)
            face = (
                np.minimum(shapes[i][rows, other[:, 0]],
                           shapes[j][rows, other[:, 0]])
                * np.minimum(shapes[i][rows, other[:, 1]],
                             shapes[j][rows, other[:, 1]])
            ).astype(float)
            cut = part.cut()
            for got, expected in (
                (cut.pairs, want),
                (cut.owner_i, part.assignment[i[want]]),
                (cut.owner_j, part.assignment[j[want]]),
                (cut.face, face[want]),
                (cut.density, dens[i[want]] + dens[j[want]]),
            ):
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
            checked.add(part.partitioner_name)
            if part.partitioner_name == "single":
                assert cut.pairs.size == 0
            offset |= any(units.domain.lo)
            clipped |= any(
                n % units.granularity for n in units.domain.shape
            )
        assert {"single", "checkerboard"} <= checked
        assert set(PARTITIONER_REGISTRY) <= checked
        assert offset and clipped

    def test_assignment_is_read_only(self):
        part = next(_partitioned_cases(_hierarchy_corpus()[:1]))
        with pytest.raises(ValueError):
            part.assignment[0] = 1
        for held in (part.owner_lattice(), part.proc_loads(), part.cut().face):
            with pytest.raises(ValueError):
                held[...] = 0
        # the caller's writable array is copied, not frozen in place
        mine = part.assignment.copy()
        again = Partition(units=part.units, num_procs=part.num_procs,
                          assignment=mine, partitioner_name="copy")
        mine[:] = 0
        np.testing.assert_array_equal(again.assignment, part.assignment)

    def test_unit_shapes_are_clipped_boxes(self):
        for domain, g, curve in LATTICES:
            units = build_units(
                WorkloadMap(domain, np.ones(domain.shape)),
                granularity=g, curve=curve,
            )
            boxes = np.array(
                [units.unit_box(k).shape for k in range(len(units))]
            )
            np.testing.assert_array_equal(ref_geometry.unit_shapes(units), boxes)

    def test_refined_mask_matches_oracle(self):
        hierarchies = _hierarchy_corpus() + [_clipped_hierarchy()]
        for hierarchy in hierarchies:
            np.testing.assert_array_equal(
                hierarchy.refined_mask(), ref_metrics.refined_mask(hierarchy)
            )
        # the clipped corpus really clips: some cells set, not all
        mask = _clipped_hierarchy().refined_mask()
        assert 0 < mask.sum() < mask.size


# -- octant classifier signals -------------------------------------------------


def _retuned(hierarchy: GridHierarchy, rng: np.random.Generator):
    """Copy of ``hierarchy`` with random per-patch ``load_per_cell``.

    Regridded patches all carry 1.0; random loads make the float sums
    order-sensitive, so a changed accumulation shows up.
    """
    levels = [
        Level(index=lvl.index, ratio=lvl.ratio, patches=[
            Patch(p.box, level=p.level, patch_id=p.patch_id,
                  load_per_cell=float(rng.random() * 10.0 ** rng.integers(-3, 4)))
            for p in lvl.patches
        ])
        for lvl in hierarchy.levels
    ]
    return GridHierarchy(domain=hierarchy.domain, levels=levels)


def _empty_refined_hierarchy() -> GridHierarchy:
    """Two refined levels, neither holding a patch."""
    domain = Box((0, 0, 0), (8, 6, 4))
    return GridHierarchy(domain=domain, levels=[
        Level(index=0, ratio=1, patches=[Patch(domain, level=0, patch_id=0)]),
        Level(index=1, ratio=2),
        Level(index=2, ratio=4),
    ])


def _ratio3_hierarchy() -> GridHierarchy:
    """Refinement ratio 3: centroid scaling is inexact in binary."""
    domain = Box((0, 0, 0), (10, 8, 6))
    return GridHierarchy(domain=domain, levels=[
        Level(index=0, ratio=1, patches=[Patch(domain, level=0, patch_id=0)]),
        Level(index=1, ratio=3, patches=[
            Patch(Box((1, 2, 0), (8, 9, 5)), level=1, patch_id=1),
            Patch(Box((13, 4, 7), (29, 23, 17)), level=1, patch_id=2),
        ]),
        Level(index=2, ratio=3, patches=[
            Patch(Box((40, 14, 22), (61, 50, 47)), level=2, patch_id=3),
        ]),
    ])


def _signal_corpus():
    rng = np.random.default_rng(2718)
    hierarchies = _hierarchy_corpus() + [
        _clipped_hierarchy(),
        _empty_refined_hierarchy(),
        _ratio3_hierarchy(),
        GridHierarchy(domain=Box((0, 0, 0), (5, 5, 5))),  # base only
    ]
    hierarchies += [GridHierarchy.from_dict(
        json.loads(path.read_text())["hierarchy"]) for path in GOLDEN]
    return hierarchies + [_retuned(h, rng) for h in hierarchies]


def _same(got, want) -> bool:
    """Exact equality, type included (an int 0 is not a float 0.0)."""
    return type(got) is type(want) and got == want


class TestSignalDifferential:
    def test_level_sums_match_oracle(self):
        for hierarchy in _signal_corpus():
            for lvl in hierarchy.levels:
                assert _same(lvl.num_cells, ref_signals.level_num_cells(lvl))
                assert _same(lvl.load, ref_signals.level_load(lvl))

    def test_hierarchy_signals_match_oracle(self):
        for hierarchy in _signal_corpus():
            for name in ("load_per_coarse_step", "adaptation_scatter",
                         "comm_to_comp_ratio"):
                got = getattr(hierarchy, name)()
                want = getattr(ref_signals, name)(hierarchy)
                assert _same(got, want), (name, got, want)

    def test_added_patch_updates_signals(self):
        hierarchy = _retuned(_hierarchy_corpus()[0], np.random.default_rng(5))
        before = hierarchy.comm_to_comp_ratio()
        fine = hierarchy.levels[1]
        fine.add(Patch(Box((60, 30, 30), (62, 32, 32)), level=1,
                       patch_id=999, load_per_cell=3.5))
        after = hierarchy.comm_to_comp_ratio()
        assert after != before
        assert _same(after, ref_signals.comm_to_comp_ratio(hierarchy))
        assert _same(fine.load, ref_signals.level_load(fine))
        np.testing.assert_array_equal(
            hierarchy.refined_mask(), ref_metrics.refined_mask(hierarchy)
        )


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
