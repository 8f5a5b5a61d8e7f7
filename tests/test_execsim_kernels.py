"""Differential tests for the execsim communication-cost kernel.

:func:`repro.execsim.costmodel.comm_cost_terms` over a cut record must
be *bit-identical* to the frozen scalar oracle in
``tests/reference/ref_costmodel.py`` — over randomized synthetic
adjacency problems (cut found here with the all-pairs owner mask and
gathered by :func:`repro.partitioners.base.cut_record`), over real
partitioned hierarchies (the partition's own lattice-found cut), and
over the committed golden corpus ``tests/golden/costmodel.json``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import Regridder, RegridPolicy
from repro.execsim.costmodel import (
    CostModel,
    comm_cost_terms,
    per_step_comm_times,
)
from repro.partitioners import PARTITIONER_REGISTRY, build_units
from repro.partitioners.base import cut_record

TESTS = Path(__file__).parent


def _load_reference(name: str):
    path = TESTS / "reference" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ref_costmodel = _load_reference("ref_costmodel")


def digest(arr: np.ndarray) -> str:
    arr = np.asarray(arr)
    dtype = np.float64 if np.issubdtype(arr.dtype, np.floating) else np.int64
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()
    ).hexdigest()


# -- randomized synthetic corpus ----------------------------------------------


def _random_problem(rng: np.random.Generator, n_units: int, num_procs: int):
    """A synthetic adjacency problem shaped like real composite units."""
    shapes = rng.integers(1, 6, size=(n_units, 3))
    loads = rng.random(n_units) * rng.choice([1.0, 50.0], size=n_units)
    assignment = rng.integers(0, num_procs, size=n_units)
    n_pairs = max(1, 3 * n_units)
    i = rng.integers(0, n_units, size=n_pairs)
    j = rng.integers(0, n_units, size=n_pairs)
    axis = rng.integers(0, 3, size=n_pairs)
    return i, j, axis, assignment, shapes, loads, num_procs


def _cases():
    rng = np.random.default_rng(20260808)
    out = []
    for n_units, num_procs in [(1, 1), (8, 2), (50, 7), (200, 16), (777, 31)]:
        out.append(_random_problem(rng, n_units, num_procs))
    # all one owner: no cut faces at all
    i, j, axis, _, shapes, loads, _ = _random_problem(rng, 40, 5)
    out.append((i, j, axis, np.zeros(40, dtype=int), shapes, loads, 5))
    # zero loads: densities collapse but faces still cut
    i, j, axis, assignment, shapes, _, _ = _random_problem(rng, 40, 5)
    out.append((i, j, axis, assignment, shapes, np.zeros(40), 5))
    # empty adjacency
    out.append((
        np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=int),
        np.zeros(4, dtype=int), np.ones((4, 3), dtype=int), np.ones(4), 4,
    ))
    return out


def _terms_of_pairs(i, j, axis, assignment, shapes, loads, num_procs,
                    ghost_width, bytes_per_comm_unit):
    """The kernel over arbitrary pairs: cut by the all-pairs owner mask."""
    pairs = np.flatnonzero(assignment[i] != assignment[j])
    cut = cut_record(i, j, axis, pairs, assignment, shapes, loads)
    return comm_cost_terms(cut, num_procs, ghost_width, bytes_per_comm_unit)


class TestCostTermsDifferential:
    @pytest.mark.parametrize(
        "widths", [(2.0, 10.0), (1.0, 4.0)], ids=["default", "narrow"]
    )
    def test_matches_oracle(self, widths):
        for case in _cases():
            got = _terms_of_pairs(*case, *widths)
            want = ref_costmodel.comm_cost_terms(*case, *widths)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]


# -- real partitioned hierarchies ---------------------------------------------


def _hierarchy_corpus():
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
    out.append(
        Regridder(noise_domain, RegridPolicy(thresholds=(0.55, 0.85))).regrid(
            rng.random(noise_domain.shape)
        )
    )
    return out


class TestRealUnitsDifferential:
    def test_partitioned_hierarchies_match_oracle(self):
        cost = CostModel()
        for hierarchy in _hierarchy_corpus():
            units = build_units(hierarchy, granularity=4)
            i, j, axis = units.adjacency_arrays()
            shapes = units.unit_shapes()
            for name in ("ISP", "G-MISP+SP"):
                part = PARTITIONER_REGISTRY[name]().partition(units, 8)
                got = comm_cost_terms(
                    part.cut(), 8, cost.ghost_width, cost.bytes_per_comm_unit,
                )
                want = ref_costmodel.comm_cost_terms(
                    i, j, axis, part.assignment, shapes, units.loads,
                    8, cost.ghost_width, cost.bytes_per_comm_unit,
                )
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
                assert got[2] == want[2]

    def test_per_step_comm_times_matches_oracle(self):
        hierarchy = _hierarchy_corpus()[0]
        units = build_units(hierarchy, granularity=4)
        part = PARTITIONER_REGISTRY["ISP"]().partition(units, 8)
        cost = CostModel()
        bandwidth = 1e8
        got, ghost = per_step_comm_times(part, cost, bandwidth)
        i, j, axis = units.adjacency_arrays()
        comm_bytes, neighbor_count, want_ghost = ref_costmodel.comm_cost_terms(
            i, j, axis, part.assignment, units.unit_shapes(), units.loads,
            8, cost.ghost_width, cost.bytes_per_comm_unit,
        )
        msg_factor = float(part.params.get("messages_per_neighbor", 3.0))
        want = (
            comm_bytes / bandwidth
            + cost.latency_per_neighbor * neighbor_count * msg_factor
        )
        np.testing.assert_array_equal(got, want)
        assert ghost == want_ghost


# -- golden corpus ------------------------------------------------------------

GOLDEN = TESTS / "golden" / "costmodel.json"


def test_golden_costmodel_corpus():
    doc = json.loads(GOLDEN.read_text())
    cost = CostModel()
    for case_name, entry in doc["cases"].items():
        case = json.loads((TESTS / "golden" / f"{case_name}.json").read_text())
        hierarchy = GridHierarchy.from_dict(case["hierarchy"])
        units = build_units(hierarchy, granularity=doc["granularity"])
        i, j, axis = units.adjacency_arrays()
        shapes = units.unit_shapes()
        for name, want in entry.items():
            part = PARTITIONER_REGISTRY[name]().partition(
                units, doc["num_procs"]
            )
            widths = (cost.ghost_width, cost.bytes_per_comm_unit)
            for comm_bytes, neighbor_count, ghost_work in (
                comm_cost_terms(part.cut(), doc["num_procs"], *widths),
                ref_costmodel.comm_cost_terms(
                    i, j, axis, part.assignment, shapes, units.loads,
                    doc["num_procs"], *widths,
                ),
            ):
                assert digest(comm_bytes) == want["comm_bytes_digest"], (
                    f"{case_name}/{name} comm bytes drifted"
                )
                assert digest(neighbor_count) == want["neighbor_count_digest"]
                assert ghost_work == want["ghost_work"]
