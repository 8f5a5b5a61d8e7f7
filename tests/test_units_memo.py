"""The process-wide unit-geometry memo of ``repro.partitioners.units``.

Adjacency pairs, their face areas and the units' cell counts are
memoized per ``(domain, granularity, curve)``; the memo is bounded by a
byte budget and shared by the server's worker threads.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.amr.box import Box
from repro.amr.workload import WorkloadMap
from repro.core.meta_partitioner import MetaPartitioner
from repro.execsim import ExecutionSimulator
from repro.gridsys import sp2_blue_horizon
from repro.partitioners import units as units_mod
from repro.partitioners.units import (
    CompositeUnits,
    build_units,
    clear_adjacency_memo,
)


def _units(nx: int, granularity: int = 1, curve: str = "hilbert"):
    domain = Box((0, 0, 0), (nx, 3, 2))
    return build_units(
        WorkloadMap(domain, np.ones(domain.shape)),
        granularity=granularity, curve=curve,
    )


def _memo_bytes() -> int:
    return sum(e.nbytes for e in units_mod._GEOMETRY_MEMO.values())


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_adjacency_memo()
    yield
    clear_adjacency_memo()


def test_one_entry_serves_adjacency_and_shapes():
    u = _units(8, granularity=3)
    geo = u.pair_geometry()
    assert geo is units_mod._GEOMETRY_MEMO[(u.domain, u.granularity, u.curve)]
    assert u.pair_geometry().i is geo.i and u.pair_geometry().j is geo.j
    assert len(units_mod._GEOMETRY_MEMO) == 1
    # a second units object over the same lattice shares the entry
    v = _units(8, granularity=3)
    assert v.pair_geometry() is geo
    assert v.pair_geometry().i is geo.i
    for arr in (geo.i, geo.j, geo.face, geo.cells):
        assert not arr.flags.writeable
    # the memo's cell counts agree with the units' clipped boxes
    # (tests/test_kernels.py checks the face areas)
    shapes = np.array([u.unit_box(k).shape for k in range(len(u))])
    assert np.array_equal(geo.cells, shapes.prod(axis=1).astype(float))
    clear_adjacency_memo()
    assert not units_mod._GEOMETRY_MEMO


def test_reference_entry_size():
    """The reference lattice's entry holds i, j, face and cells only:
    10,264,576 bytes, against 12,361,728 with (i, j, axis, shapes)."""
    domain = Box((0, 0, 0), (128, 32, 32))
    u = build_units(WorkloadMap(domain, np.ones(domain.shape)), granularity=1)
    assert u.pair_geometry().nbytes <= 12_361_728


def test_memo_stays_within_byte_budget(monkeypatch):
    entry = _units(40).pair_geometry().nbytes
    budget = 5 * entry
    monkeypatch.setattr(units_mod, "_GEOMETRY_MEMO_BYTES", budget)
    clear_adjacency_memo()
    for nx in range(20, 60):
        _units(nx).pair_geometry()
        assert _memo_bytes() <= budget
    # FIFO: the newest lattice survives, the oldest was evicted
    keys = [key[0].hi[0] for key in units_mod._GEOMETRY_MEMO]
    assert keys[-1] == 59 and 20 not in keys
    # an entry larger than the whole budget is computed but not kept
    monkeypatch.setattr(units_mod, "_GEOMETRY_MEMO_BYTES", 100)
    clear_adjacency_memo()
    big = _units(30)
    assert big.pair_geometry().cells.sum() == 30 * 3 * 2
    assert not units_mod._GEOMETRY_MEMO


def test_concurrent_workers_share_the_memo(monkeypatch):
    # a budget of a few entries keeps every thread evicting
    monkeypatch.setattr(
        units_mod, "_GEOMETRY_MEMO_BYTES", 4 * _units(40).pair_geometry().nbytes
    )
    clear_adjacency_memo()
    lattices = [(nx, curve) for nx in range(2, 38) for curve in ("hilbert", "morton")]
    assert len(lattices) >= 70
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def worker(offset: int) -> None:
        try:
            barrier.wait()
            for k in range(len(lattices)):
                nx, curve = lattices[(k + offset) % len(lattices)]
                u = _units(nx, curve=curve)
                i = u.pair_geometry().i
                assert u.pair_geometry().cells.sum() == nx * 3 * 2
                assert i.size == (nx - 1) * 6 + nx * 2 * 2 + nx * 3
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n * 9,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert _memo_bytes() <= units_mod._GEOMETRY_MEMO_BYTES


def test_replay_misses_once_per_lattice(monkeypatch, small_rm3d_trace):
    keys: set = set()
    geometry = CompositeUnits.pair_geometry

    def spy(self):
        keys.add((self.domain, self.granularity, self.curve))
        return geometry(self)

    monkeypatch.setattr(CompositeUnits, "pair_geometry", spy)
    with obs.collect() as window:
        ExecutionSimulator(sp2_blue_horizon(8), 8).run(
            small_rm3d_trace, MetaPartitioner()
        )
    registry = window.registry
    misses = registry.counter_value("units.adjacency_memo", outcome="miss")
    hits = registry.counter_value("units.adjacency_memo", outcome="hit")
    assert keys and misses == len(keys)
    assert hits > misses
