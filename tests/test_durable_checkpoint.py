"""Crash-consistent on-disk checkpoints (repro.resilience.durable)."""

import json

import pytest

from repro import obs
from repro.config import SimulatorOptions
from repro.execsim import ExecutionSimulator, StaticSelector
from repro.gridsys import FailureEvent, sp2_blue_horizon
from repro.partitioners import ISPPartitioner
from repro.resilience import (
    CheckpointStore,
    DurableCheckpointStore,
    FaultTolerance,
    corrupt_checkpoint,
)
from repro.resilience.durable import FORMAT_NAME


@pytest.fixture()
def store(tmp_path, small_hierarchy):
    st = DurableCheckpointStore(tmp_path, keep=3)
    for step in (4, 8, 12):
        st.save(step, float(step), small_hierarchy)
    return st


class TestDurableRoundTrip:
    def test_save_persists_and_restore_reads_disk(self, store, small_hierarchy):
        paths = store.record_paths()
        assert len(paths) == 3
        ck, seconds = store.restore()
        assert ck.step == 12
        assert seconds > 0.0
        assert ck.num_cells == small_hierarchy.total_cells
        # The restored hierarchy is rebuilt from bytes, not aliased.
        assert ck.hierarchy is not small_hierarchy
        assert ck.hierarchy.to_dict() == small_hierarchy.to_dict()

    def test_record_format_self_describes(self, store):
        newest = store.record_paths()[-1]
        head, _, payload = newest.read_bytes().partition(b"\n")
        header = json.loads(head)
        assert header["format"] == FORMAT_NAME
        assert header["step"] == 12
        assert header["payload_bytes"] == len(payload)

    def test_keep_prunes_oldest_records(self, tmp_path, small_hierarchy):
        st = DurableCheckpointStore(tmp_path, keep=2)
        for step in range(5):
            st.save(step, float(step), small_hierarchy)
        paths = st.record_paths()
        assert len(paths) == 2
        assert [DurableCheckpointStore.validate(p)[0].step for p in paths] \
            == [3, 4]

    def test_leftover_tmp_file_ignored(self, store, tmp_path):
        # A crash before the rename leaves only a .tmp — restore skips it.
        (tmp_path / "ckpt-000099-step000099.ckpt.tmp").write_bytes(b"garbage")
        assert len(store.record_paths()) == 3
        ck, _ = store.restore()
        assert ck.step == 12

    def test_in_memory_counters_match_base_store(self, store):
        assert store.saved == 3
        assert len(store) == 3          # bounded in-memory deque too
        store.restore()
        assert store.restored == 1


class TestCorruptionWalkback:
    def test_torn_newest_falls_back_one_interval(self, store):
        corrupt_checkpoint(store.record_paths()[-1], mode="torn")
        with obs.collect() as window:
            ck, _ = store.restore()
        assert ck.step == 8
        assert window.registry.counter_value(
            "resilience.checkpoint_corrupt", reason="torn"
        ) == 1

    def test_bitflip_caught_by_checksum(self, store):
        corrupt_checkpoint(store.record_paths()[-1], mode="bitflip", seed=1)
        with obs.collect() as window:
            ck, _ = store.restore()
        assert ck.step == 8
        assert window.registry.counter_value(
            "resilience.checkpoint_corrupt", reason="checksum"
        ) == 1

    def test_mangled_header_rejected(self, store):
        newest = store.record_paths()[-1]
        blob = newest.read_bytes()
        newest.write_bytes(b"not json" + blob[8:])
        with obs.collect() as window:
            ck, _ = store.restore()
        assert ck.step == 8
        assert window.registry.counter_value(
            "resilience.checkpoint_corrupt", reason="header"
        ) == 1

    def test_all_corrupt_raises(self, store):
        for path in store.record_paths():
            corrupt_checkpoint(path, mode="torn")
        with obs.collect() as window:
            with pytest.raises(RuntimeError, match="all corrupt"):
                store.restore()
        assert window.registry.sum_counters(
            "resilience.checkpoint_corrupt"
        ) == 3

    def test_validate_reports_reason_without_counting(self, store):
        path = store.record_paths()[0]
        assert DurableCheckpointStore.validate(path)[1] is None
        corrupt_checkpoint(path, mode="bitflip")
        ck, reason = DurableCheckpointStore.validate(path)
        assert ck is None
        assert reason == "checksum"

    def test_injector_rejects_unknown_mode(self, store):
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_checkpoint(store.record_paths()[0], mode="gamma-ray")

    def test_injector_is_deterministic(self, store):
        a, b = store.record_paths()[:2]
        before_a, before_b = a.read_bytes(), b.read_bytes()
        assert before_a.partition(b"\n")[2] == before_b.partition(b"\n")[2]
        corrupt_checkpoint(a, mode="bitflip", seed=9)
        corrupt_checkpoint(b, mode="bitflip", seed=9)
        assert a.read_bytes().partition(b"\n")[2] == \
            b.read_bytes().partition(b"\n")[2]


class TestSimulatorIntegration:
    def test_checkpoint_dir_persists_records_during_replay(
        self, tmp_path, small_rm3d_trace
    ):
        cluster = sp2_blue_horizon(8)
        cluster.failures.add(FailureEvent(1, 200.0, 260.0))
        ft = FaultTolerance(checkpoint_dir=str(tmp_path))
        res = ExecutionSimulator(cluster, options=SimulatorOptions(fault_tolerance=ft)).run(
            small_rm3d_trace, StaticSelector(ISPPartitioner())
        )
        planned = small_rm3d_trace.meta["num_coarse_steps"]
        assert sum(r.coarse_steps for r in res.records) == planned
        assert res.num_recoveries >= 1
        paths = sorted(tmp_path.glob("*.ckpt"))
        assert paths                     # records written through the run
        for path in paths:
            ck, reason = DurableCheckpointStore.validate(path)
            assert reason is None
            assert ck.hierarchy is not None

    def test_no_checkpoint_dir_keeps_memory_store(self, small_rm3d_trace):
        cluster = sp2_blue_horizon(8)
        cluster.failures.add(FailureEvent(1, 200.0, 260.0))
        res = ExecutionSimulator(
            cluster, options=SimulatorOptions(fault_tolerance=FaultTolerance())
        ).run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        assert res.num_recoveries >= 1   # in-memory path unchanged

    def test_durable_equals_memory_store_timings(
        self, tmp_path, small_rm3d_trace
    ):
        """Durability is free in simulated seconds: same cost model."""

        def run(ft):
            cluster = sp2_blue_horizon(8)
            cluster.failures.add(FailureEvent(1, 200.0, 260.0))
            return ExecutionSimulator(cluster, options=SimulatorOptions(fault_tolerance=ft)).run(
                small_rm3d_trace, StaticSelector(ISPPartitioner())
            )

        mem = run(FaultTolerance())
        dur = run(FaultTolerance(checkpoint_dir=str(tmp_path)))
        assert dur.total_runtime == pytest.approx(mem.total_runtime)
        assert dur.total_checkpoint_time == pytest.approx(
            mem.total_checkpoint_time
        )


class TestDeepCopyOption:
    def test_durable_restore_immune_to_caller_mutation(
        self, tmp_path, small_hierarchy
    ):
        st = DurableCheckpointStore(tmp_path, keep=2)
        mutable = small_hierarchy.copy()
        st.save(0, 0.0, mutable)
        before = mutable.total_cells
        mutable.levels.pop()             # in-place regrid-style mutation
        ck, _ = st.restore()
        # Disk round-trip: state at save time, not post-mutation state.
        assert ck.hierarchy.total_cells == before

    def test_base_store_aliases_without_deep_copy(self, small_hierarchy):
        st = CheckpointStore()
        mutable = small_hierarchy.copy()
        st.save(0, 0.0, mutable)
        mutable.levels.pop()
        ck, _ = st.restore()
        assert ck.hierarchy is mutable   # the documented aliasing hazard
