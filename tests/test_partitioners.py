"""Tests for the SAMR partitioner suite."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amr.box import Box
from repro.amr.workload import WorkloadMap
from repro.partitioners import (
    EqualPartitioner,
    GMISPPartitioner,
    GMISPSPPartitioner,
    HeterogeneousPartitioner,
    ISPPartitioner,
    PARTITIONER_REGISTRY,
    PartitionError,
    PBDISPPartitioner,
    SFCPartitioner,
    SPISPPartitioner,
    build_units,
    evaluate_partition,
)

ALL_PARTITIONERS = [
    SFCPartitioner,
    ISPPartitioner,
    GMISPPartitioner,
    GMISPSPPartitioner,
    PBDISPPartitioner,
    SPISPPartitioner,
]


@pytest.fixture(scope="module")
def units(small_hierarchy_module):
    return build_units(small_hierarchy_module, granularity=2)


@pytest.fixture(scope="module")
def small_hierarchy_module():
    from repro.amr.regrid import Regridder, RegridPolicy

    domain = Box((0, 0, 0), (32, 16, 16))
    err = np.zeros(domain.shape)
    err[6:14, 4:10, 4:10] = 0.6
    err[8:12, 5:8, 5:8] = 0.95
    rg = Regridder(domain, RegridPolicy(thresholds=(0.3, 0.8)))
    return rg.regrid(err)


class TestBuildUnits:
    def test_total_load_preserved(self, small_hierarchy_module, units):
        assert units.total_load == pytest.approx(
            small_hierarchy_module.load_per_coarse_step()
        )

    def test_unit_count(self, units):
        assert len(units) == (32 // 2) * (16 // 2) * (16 // 2)

    def test_unit_boxes_tile_domain(self, units):
        total = sum(units.unit_box(i).num_cells for i in range(len(units)))
        assert total == 32 * 16 * 16

    def test_curve_positions_consistent(self, units):
        assert (units.curve_position[units.lattice_index]
                == np.arange(len(units))).all()

    def test_clipped_edge_units(self):
        # domain not a multiple of granularity
        wm = WorkloadMap(Box((0, 0, 0), (10, 6, 6)), np.ones((10, 6, 6)))
        u = build_units(wm, granularity=4)
        assert u.total_load == pytest.approx(360.0)
        shapes = np.array([u.unit_box(k).shape for k in range(len(u))])
        assert shapes.min() >= 1 and shapes.max() <= 4

    def test_adjacency_symmetric_and_complete(self, units):
        i = units.pair_geometry().i
        nx, ny, nz = units.grid_shape
        expected = ((nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1))
        assert len(i) == expected

    def test_validation(self, small_hierarchy_module):
        with pytest.raises(ValueError):
            build_units(small_hierarchy_module, granularity=0)
        with pytest.raises(ValueError):
            build_units(small_hierarchy_module, curve="zigzag")


class TestPartitionObject:
    def test_proc_loads_sum(self, units):
        p = ISPPartitioner().partition(units, 5)
        assert p.proc_loads().sum() == pytest.approx(units.total_load)

    def test_invalid_assignment_rejected(self, units):
        from repro.partitioners.base import Partition

        with pytest.raises(ValueError):
            Partition(
                units=units,
                num_procs=2,
                assignment=np.full(len(units), 7),
                partitioner_name="bad",
            )

    def test_owner_lattice_shape(self, units):
        p = ISPPartitioner().partition(units, 4)
        assert p.owner_lattice().shape == units.grid_shape

    def test_rect_fragments_lower_bound(self, units):
        p = PBDISPPartitioner().partition(units, 4)
        assert p.rect_fragments() >= 4

    def test_partition_time_deterministic(self, units):
        """Two identical calls must return identical partitions — wall
        clock used to leak into ``partition_time`` and, through the
        simulator, into every downstream result."""
        a = ISPPartitioner().partition(units, 5)
        b = ISPPartitioner().partition(units, 5)
        assert a.partition_time == b.partition_time
        assert a.partition_time > 0.0

    def test_partition_time_wall_clock_opt_in(self, units):
        from repro.partitioners.base import DEFAULT_SECONDS_PER_UNIT

        modeled = ISPPartitioner().partition(units, 5)
        assert modeled.partition_time == DEFAULT_SECONDS_PER_UNIT * len(units)
        measured = ISPPartitioner().partition(
            units, 5, measure_wall_clock=True
        )
        assert measured.partition_time != modeled.partition_time

    def test_deterministic_partition_time_overrides_rate(self, units):
        from repro.partitioners.base import deterministic_partition_time

        with deterministic_partition_time(seconds_per_unit=1e-3):
            p = ISPPartitioner().partition(units, 5)
        assert p.partition_time == 1e-3 * len(units)

    def test_partition_time_override_is_thread_local(self, units):
        """Concurrent scopes must not clobber or leak into each other —
        the serve workers wrap every job in this context, so a shared
        module global would let one job's exit restore ``None`` under a
        still-running neighbour (and leak the override afterwards)."""
        import threading

        from repro.partitioners.base import (
            DEFAULT_SECONDS_PER_UNIT,
            deterministic_partition_time,
        )

        entered = threading.Event()
        other_done = threading.Event()
        seen: dict[str, float] = {}

        def _inner():
            with deterministic_partition_time(seconds_per_unit=1e-5):
                seen["inner"] = ISPPartitioner().partition(units, 5).partition_time
            other_done.set()

        def _outer():
            with deterministic_partition_time(seconds_per_unit=1e-3):
                entered.set()
                assert other_done.wait(timeout=10.0)
                # the inner thread set *and restored* its own override;
                # ours must be untouched
                seen["outer"] = ISPPartitioner().partition(units, 5).partition_time

        t_outer = threading.Thread(target=_outer)
        t_outer.start()
        assert entered.wait(timeout=10.0)
        t_inner = threading.Thread(target=_inner)
        t_inner.start()
        t_inner.join(timeout=10.0)
        t_outer.join(timeout=10.0)
        assert seen["inner"] == 1e-5 * len(units)
        assert seen["outer"] == 1e-3 * len(units)
        # nothing leaked into this (main) thread
        p = ISPPartitioner().partition(units, 5)
        assert p.partition_time == DEFAULT_SECONDS_PER_UNIT * len(units)


class TestAllPartitioners:
    @pytest.mark.parametrize("cls", ALL_PARTITIONERS)
    def test_complete_valid_assignment(self, cls, units):
        part = cls().partition(units, 7)
        assert part.assignment.shape == (len(units),)
        assert part.assignment.min() >= 0
        assert part.assignment.max() < 7
        assert part.proc_loads().sum() == pytest.approx(units.total_load)

    @pytest.mark.parametrize("cls", ALL_PARTITIONERS)
    def test_single_proc(self, cls, units):
        part = cls().partition(units, 1)
        assert (part.assignment == 0).all()

    @pytest.mark.parametrize("cls", ALL_PARTITIONERS)
    def test_all_procs_used_when_reasonable(self, cls, units):
        part = cls().partition(units, 4)
        assert len(np.unique(part.assignment)) == 4

    def test_zero_procs_rejected(self, units):
        with pytest.raises(PartitionError):
            ISPPartitioner().partition(units, 0)

    def test_registry_names(self):
        assert set(PARTITIONER_REGISTRY) == {
            "SFC", "ISP", "G-MISP", "G-MISP+SP", "pBD-ISP", "SP-ISP"
        }
        for name, cls in PARTITIONER_REGISTRY.items():
            assert cls.name == name


class TestQualityOrdering:
    """The characteristic trade-offs the policy base relies on."""

    def test_gmisp_sp_balances_best(self, units):
        sp = GMISPSPPartitioner().partition(units, 8)
        sfc = SFCPartitioner(patch_units=8).partition(units, 8)
        m_sp = evaluate_partition(sp)
        m_sfc = evaluate_partition(sfc)
        assert m_sp.load_imbalance_pct <= m_sfc.load_imbalance_pct

    def test_pbd_is_rectangular(self, units):
        pbd = PBDISPPartitioner().partition(units, 8)
        gm = GMISPSPPartitioner().partition(units, 8)
        # pBD produces near-minimal rectangular fragments.
        assert pbd.rect_fragments() <= gm.rect_fragments() * 2

    def test_sp_isp_matches_optimal_bottleneck(self, units):
        from repro.partitioners.sequence import optimal_sequence_partition, segment_loads

        part = SPISPPartitioner().partition(units, 8)
        direct = optimal_sequence_partition(units.loads, 8)
        assert segment_loads(units.loads, part.assignment, 8).max() == pytest.approx(
            segment_loads(units.loads, direct, 8).max()
        )


class TestHeterogeneous:
    def test_requires_capacities(self, units):
        with pytest.raises(PartitionError):
            HeterogeneousPartitioner().partition(units, 4)

    def test_proportional_loads(self, units):
        caps = np.array([0.1, 0.2, 0.3, 0.4])
        part = HeterogeneousPartitioner().partition(units, 4, caps)
        loads = part.proc_loads() / units.total_load
        assert loads[3] > loads[0]

    def test_equal_partitioner_balances(self, units):
        part = EqualPartitioner().partition(units, 4)
        m = evaluate_partition(part)
        assert m.load_imbalance_pct < 50.0

    def test_bad_capacities_rejected(self, units):
        with pytest.raises(PartitionError):
            HeterogeneousPartitioner().partition(units, 4, np.zeros(4))
        with pytest.raises(PartitionError):
            HeterogeneousPartitioner().partition(units, 4, np.ones(3))


class TestMetrics:
    def test_migration_zero_without_previous(self, units):
        p = ISPPartitioner().partition(units, 4)
        assert evaluate_partition(p).data_migration == 0.0

    def test_migration_zero_for_identical(self, units):
        p1 = ISPPartitioner().partition(units, 4)
        p2 = ISPPartitioner().partition(units, 4)
        assert evaluate_partition(p2, p1).data_migration == 0.0

    def test_migration_positive_when_owners_move(self, units):
        p1 = ISPPartitioner().partition(units, 4)
        p2 = PBDISPPartitioner().partition(units, 4)
        assert evaluate_partition(p2, p1).data_migration > 0.0

    def test_comm_zero_single_proc(self, units):
        p = ISPPartitioner().partition(units, 1)
        assert evaluate_partition(p).comm_volume == 0.0

    def test_metric_dict(self, units):
        m = evaluate_partition(ISPPartitioner().partition(units, 4))
        d = m.as_dict()
        assert set(d) == {
            "load_imbalance_pct", "comm_volume", "data_migration",
            "partition_time", "overhead",
        }

    def test_migration_across_granularities(self, units, small_hierarchy_module):
        coarse = build_units(small_hierarchy_module, granularity=4)
        p1 = ISPPartitioner().partition(coarse, 4)
        p2 = ISPPartitioner().partition(units, 4)
        m = evaluate_partition(p2, p1)
        assert m.data_migration >= 0.0  # nearest-resample path exercised


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_property_partitioners_conserve_load(seed, p):
    """Random workloads: every partitioner assigns all load exactly once."""
    rng = np.random.default_rng(seed)
    shape = (8, 8, 8)
    wm = WorkloadMap(Box.from_shape(shape), rng.random(shape) * 10)
    units = build_units(wm, granularity=2)
    for cls in ALL_PARTITIONERS:
        part = cls().partition(units, p)
        assert part.proc_loads().sum() == pytest.approx(units.total_load)
