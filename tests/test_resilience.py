"""Tests for the fault-tolerance subsystem (repro.resilience)."""

import hashlib
import json
import math

import pytest

from repro.agents import (
    DeliveryPolicy,
    ManagedComponent,
    Message,
    MessageCenter,
    MigrateActuator,
)
from repro.agents.component import ComponentState
from repro.config import SimulatorOptions
from repro.core.meta_partitioner import MetaPartitioner
from repro.execsim import ExecutionSimulator, StaticSelector
from repro.gridsys import (
    FailureEvent,
    FailureSchedule,
    linux_cluster,
    sp2_blue_horizon,
)
from repro.partitioners import ISPPartitioner
from repro.resilience import (
    CheckpointCostModel,
    CheckpointStore,
    DetectorConfig,
    FailureDetector,
    FaultTolerance,
)


class TestFailureScheduleIndex:
    def test_is_alive_matches_linear_scan(self):
        sched = FailureSchedule.poisson(
            num_nodes=4, horizon=500.0, mtbf=60.0, mttr=20.0, seed=3
        )
        for t in [0.0, 13.7, 99.2, 250.0, 499.9, 700.0]:
            for node in range(4):
                expected = not any(
                    e.node_id == node and e.is_down(t) for e in sched.events
                )
                assert sched.is_alive(node, t) == expected

    def test_index_invalidated_by_add(self):
        sched = FailureSchedule()
        assert sched.is_alive(0, 5.0)
        sched.add(FailureEvent(0, 0.0, 10.0))
        assert not sched.is_alive(0, 5.0)

    def test_overlapping_outages(self):
        sched = FailureSchedule()
        sched.add(FailureEvent(1, 0.0, 100.0))
        sched.add(FailureEvent(1, 5.0, 10.0))
        assert not sched.is_alive(1, 50.0)
        assert sched.next_alive_time(1, 2.0) == 100.0

    def test_next_alive_time(self):
        sched = FailureSchedule()
        sched.add(FailureEvent(0, 10.0, 20.0))
        sched.add(FailureEvent(0, 20.0, 30.0))
        assert sched.next_alive_time(0, 5.0) == 5.0
        assert sched.next_alive_time(0, 15.0) == 30.0
        sched.add(FailureEvent(1, 40.0))  # permanent
        assert math.isinf(sched.next_alive_time(1, 50.0))

    def test_down_during_catches_straddling_outage(self):
        sched = FailureSchedule()
        sched.add(FailureEvent(2, 10.0, 90.0))
        # failures_in only reports outages *beginning* inside the window.
        assert sched.failures_in(40.0, 60.0) == []
        straddling = sched.down_during(40.0, 60.0)
        assert len(straddling) == 1
        assert straddling[0].node_id == 2

    def test_down_during_excludes_disjoint(self):
        sched = FailureSchedule()
        sched.add(FailureEvent(0, 0.0, 10.0))
        sched.add(FailureEvent(0, 50.0, 60.0))
        assert sched.down_during(10.0, 50.0) == []
        assert len(sched.down_during(5.0, 55.0)) == 2


class TestPoissonSchedule:
    def test_seed_determinism(self):
        a = FailureSchedule.poisson(8, 1000.0, mtbf=100.0, mttr=10.0, seed=42)
        b = FailureSchedule.poisson(8, 1000.0, mtbf=100.0, mttr=10.0, seed=42)
        assert a.events == b.events
        c = FailureSchedule.poisson(8, 1000.0, mtbf=100.0, mttr=10.0, seed=43)
        assert a.events != c.events

    def test_per_node_outages_disjoint(self):
        sched = FailureSchedule.poisson(
            6, 2000.0, mtbf=50.0, mttr=25.0, seed=7
        )
        assert sched.events, "expected failures at this mtbf/horizon"
        by_node: dict[int, list] = {}
        for e in sched.events:
            by_node.setdefault(e.node_id, []).append(e)
        for events in by_node.values():
            events.sort(key=lambda e: e.t_fail)
            for prev, nxt in zip(events, events[1:]):
                assert prev.t_recover <= nxt.t_fail

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FailureSchedule.poisson(0, 100.0, mtbf=10.0, mttr=1.0)
        with pytest.raises(ValueError):
            FailureSchedule.poisson(4, 100.0, mtbf=0.0, mttr=1.0)
        with pytest.raises(ValueError):
            FailureSchedule.poisson(4, 100.0, mtbf=10.0, mttr=-1.0)


class TestDetectorConfig:
    def test_latencies(self):
        cfg = DetectorConfig(heartbeat_period=2.0, misses_to_declare=3,
                             recovery_confirmations=2)
        assert cfg.detection_latency == 6.0
        assert cfg.recovery_latency == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(heartbeat_period=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(misses_to_declare=0)
        with pytest.raises(ValueError):
            DetectorConfig(recovery_confirmations=0)


class TestFailureDetector:
    def _cluster(self):
        cluster = sp2_blue_horizon(4)
        cluster.failures.add(FailureEvent(1, 10.0, 30.0))
        return cluster

    def test_polling_declares_with_latency(self):
        det = FailureDetector(self._cluster())
        det.sweep(0.0, 40.0)
        fails = [e for e in det.events if e.kind == "failure"]
        recs = [e for e in det.events if e.kind == "recovery"]
        assert [e.node_id for e in fails] == [1]
        assert [e.node_id for e in recs] == [1]
        # Lease expires after 3 missed 1 Hz heartbeats at t=10,11,12.
        assert fails[0].t_detected == pytest.approx(12.0)
        assert recs[0].t_detected == pytest.approx(30.0)

    def test_analytic_face_agrees_with_polling(self):
        det = FailureDetector(self._cluster())
        assert not det.detected_down(1, 11.0)      # not yet declared
        assert det.detected_down(1, 13.5)
        assert det.detected_down(1, 30.5)          # recovery latency
        assert not det.detected_down(1, 31.5)
        assert det.live_nodes(14.0) == [0, 2, 3]
        assert det.next_detected_alive(1, 14.0) == pytest.approx(31.0)

    def test_short_blip_never_declared(self):
        cluster = sp2_blue_horizon(2)
        cluster.failures.add(FailureEvent(0, 10.0, 11.5))  # < 3 s latency
        det = FailureDetector(cluster)
        det.sweep(0.0, 20.0)
        assert det.events == []
        assert not det.detected_down(0, 11.0)
        assert math.isinf(det.detection_fire_time(0, 10.5))

    def test_detection_fire_time(self):
        det = FailureDetector(self._cluster())
        assert det.detection_fire_time(1, 10.0) == pytest.approx(13.0)
        assert math.isinf(det.detection_fire_time(1, 5.0))

    def test_publishes_to_message_center(self):
        mc = MessageCenter()
        mc.register("adm")
        mc.subscribe("adm", "node-failed")
        mc.subscribe("adm", "node-recovered")
        det = FailureDetector(self._cluster(), message_center=mc)
        det.sweep(0.0, 40.0)
        topics = [m.topic for m in mc.drain("adm")]
        assert topics == ["node-failed", "node-recovered"]


class TestCheckpointStore:
    def test_save_restore_roundtrip(self, small_hierarchy):
        store = CheckpointStore()
        ckpt, secs = store.save(3, 12.5, small_hierarchy)
        assert secs > 0.0
        assert ckpt.num_cells == small_hierarchy.total_cells
        restored, rsecs = store.restore()
        assert restored.step == 3 and restored.sim_time == 12.5
        assert rsecs > 0.0
        assert store.saved == 1 and store.restored == 1

    def test_keep_limit(self, small_hierarchy):
        store = CheckpointStore(keep=2)
        for step in range(5):
            store.save(step, float(step), small_hierarchy)
        assert store.latest.step == 4
        store.restore()
        assert store.latest.step == 4  # restore doesn't pop

    def test_restore_empty_raises(self):
        with pytest.raises(RuntimeError):
            CheckpointStore().restore()

    def test_cost_model_scales_with_cells(self):
        cm = CheckpointCostModel()
        assert cm.checkpoint_seconds(2_000_000) > cm.checkpoint_seconds(1_000)
        assert cm.restore_seconds(1_000) < cm.checkpoint_seconds(1_000)
        with pytest.raises(ValueError):
            CheckpointCostModel(write_bandwidth=0.0)


class TestFaultToleranceConfig:
    def test_defaults(self):
        ft = FaultTolerance()
        assert ft.max_recoveries_per_interval == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultTolerance(max_recoveries_per_interval=0)


class TestResilientReplay:
    """End-to-end: quickstart-style trace under Poisson failures."""

    def _run(self, trace, seed=11, procs=8, ft=None):
        cluster = sp2_blue_horizon(procs)
        cluster.failures.events.extend(
            FailureSchedule.poisson(
                num_nodes=procs, horizon=3000.0, mtbf=250.0, mttr=40.0,
                seed=seed,
            ).events
        )
        sim = ExecutionSimulator(cluster, options=SimulatorOptions(fault_tolerance=ft))
        return sim.run(trace, StaticSelector(ISPPartitioner()))

    def test_quickstart_under_poisson_completes(self, small_rm3d_trace):
        res = self._run(small_rm3d_trace)
        planned = small_rm3d_trace.meta["num_coarse_steps"]
        assert sum(r.coarse_steps for r in res.records) == planned
        assert res.num_recoveries >= 1
        for rec in res.records:
            assert set(rec.owners) <= set(rec.live_procs)
        for ev in res.recovery_events:
            assert ev.recovery_lag >= 0.0
            assert ev.steps_lost >= 0
            assert all(n in ev.live_after or n in ev.failed_nodes
                       for n in ev.failed_nodes)
            assert not set(ev.failed_nodes) & set(ev.live_after)

    def test_recovery_accounting_in_runtime(self, small_rm3d_trace):
        res = self._run(small_rm3d_trace)
        total = sum(
            r.compute_time + r.comm_time + r.regrid_time
            + r.checkpoint_time + r.recovery_time
            for r in res.records
        )
        assert res.total_runtime == pytest.approx(total)
        assert res.total_checkpoint_time > 0.0
        assert res.total_recovery_time > 0.0

    def test_failure_free_run_unchanged_by_default(self, small_rm3d_trace):
        """No failure schedule → no detector, no checkpoint charge."""
        res = ExecutionSimulator(sp2_blue_horizon(4)).run(
            small_rm3d_trace, StaticSelector(ISPPartitioner())
        )
        assert res.total_checkpoint_time == 0.0
        assert res.total_recovery_time == 0.0
        assert res.recovery_events == []

    def test_explicit_ft_charges_checkpoints_when_clean(
        self, small_rm3d_trace
    ):
        res = ExecutionSimulator(
            sp2_blue_horizon(4), options=SimulatorOptions(fault_tolerance=FaultTolerance())
        ).run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        assert res.total_checkpoint_time > 0.0
        assert res.num_recoveries == 0


class TestResilientMessaging:
    def test_lossy_delivery_retries_deterministically(self):
        policy = DeliveryPolicy(loss_rate=0.5, max_retries=10, seed=5)
        mc = MessageCenter(policy)
        mc.register("a")
        mc.register("b")
        for i in range(20):
            mc.send(Message(sender="a", dest="b", topic=f"t{i}"))
        assert mc.retry_count > 0

        mc2 = MessageCenter(DeliveryPolicy(loss_rate=0.5, max_retries=10, seed=5))
        mc2.register("a")
        mc2.register("b")
        for i in range(20):
            mc2.send(Message(sender="a", dest="b", topic=f"t{i}"))
        assert mc2.retry_count == mc.retry_count
        assert mc2.delivered_count == mc.delivered_count

    def test_max_retries_dead_letters(self):
        mc = MessageCenter(DeliveryPolicy(loss_rate=0.999999, max_retries=2,
                                          seed=0))
        mc.register("b")
        ok = mc.send(Message(sender="a", dest="b", topic="t"))
        assert ok is False
        assert mc.dead_letter_count == 1
        dl = mc.dead_letters[0]
        assert dl.reason == "max-retries"
        assert dl.attempts == 3  # initial + 2 retries
        assert mc.receive("b") is None

    def test_timeout_dead_letters(self):
        mc = MessageCenter(
            DeliveryPolicy(loss_rate=0.999999, max_retries=100,
                           backoff_base=1.0, backoff_factor=1.0,
                           send_timeout=2.5, seed=0)
        )
        mc.register("b")
        assert mc.send(Message(sender="a", dest="b", topic="t")) is False
        assert mc.dead_letters[0].reason == "timeout"

    def test_backoff_capped(self):
        policy = DeliveryPolicy(backoff_base=0.1, backoff_factor=10.0,
                                backoff_cap=0.5)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(5) == pytest.approx(0.5)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DeliveryPolicy(loss_rate=1.0)
        with pytest.raises(ValueError):
            DeliveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            DeliveryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            DeliveryPolicy(send_timeout=0.0)

    def test_publish_counts_only_delivered(self):
        mc = MessageCenter(DeliveryPolicy(loss_rate=0.999999, max_retries=0,
                                          seed=0))
        mc.register("a")
        mc.register("b")
        mc.subscribe("b", "ev")
        assert mc.publish("a", "ev", {}) == 0
        assert mc.dead_letter_count == 1

    def test_drain_dead_letters(self):
        mc = MessageCenter()
        mc.send(Message(sender="a", dest="ghost", topic="t"))
        assert mc.dead_letter_count == 1
        drained = mc.drain_dead_letters()
        assert len(drained) == 1
        assert mc.dead_letter_count == 0


class TestMigrateActuatorFallback:
    def _component(self, cluster, node=0):
        return ManagedComponent(
            name="c", cluster=cluster, node_id=node, total_work=1e6
        )

    def test_migrate_to_dead_node_refused(self):
        cluster = linux_cluster(4, seed=0)
        cluster.failures.add(FailureEvent(3, 0.0, 1e9))
        comp = self._component(cluster, node=0)
        comp.state = ComponentState.RUNNING
        act = MigrateActuator(comp)
        assert act.actuate(5.0, target=3) is False
        assert comp.node_id == 0
        assert comp.migrations == 0

    def test_migrate_to_live_node_succeeds(self):
        cluster = linux_cluster(4, seed=0)
        comp = self._component(cluster, node=0)
        comp.state = ComponentState.RUNNING
        act = MigrateActuator(comp)
        assert act.actuate(5.0, target=2) is True
        assert comp.node_id == 2
        assert comp.migrations == 1

    def test_failed_component_restarts_from_checkpoint(self):
        cluster = linux_cluster(4, seed=0)
        comp = self._component(cluster, node=1)
        comp.progress = 5e5
        comp.checkpoint = 3e5
        comp.state = ComponentState.FAILED
        act = MigrateActuator(comp)
        assert act.actuate(1.0, target=0) is True
        assert comp.progress == 3e5
        assert comp.state is ComponentState.RUNNING


class TestChaosConfigValidation:
    def test_defaults_and_validation(self):
        from repro.resilience.chaos import ChaosConfig

        cfg = ChaosConfig()
        assert cfg.seeds == (0, 1, 2)
        with pytest.raises(ValueError):
            ChaosConfig(seeds=())
        with pytest.raises(ValueError):
            ChaosConfig(loss_rate=1.0)
        with pytest.raises(ValueError):
            ChaosConfig(mtbf=0.0)


class TestDetectorSweepEdges:
    """Polling-loop boundary conditions: straddling windows, poll-aligned
    failures, and blips that recover before the lease expires."""

    def _detector(self, *events):
        cluster = sp2_blue_horizon(4)
        for e in events:
            cluster.failures.add(e)
        return FailureDetector(cluster)

    def test_outage_straddling_sweep_windows(self):
        # Detector state persists across sweep calls: splitting the sweep
        # at an arbitrary point inside the outage changes nothing.
        outage = FailureEvent(1, 8.0, 25.0)
        split = self._detector(outage)
        events = split.sweep(0.0, 15.0) + split.sweep(15.0, 40.0)
        whole = self._detector(outage)
        assert events == whole.sweep(0.0, 40.0)
        assert [(e.kind, e.t_detected) for e in events] == [
            ("failure", 10.0), ("recovery", 25.0)
        ]

    def test_failure_exactly_at_poll_boundary(self):
        # The heartbeat at t=10.0 itself misses (is_down is half-open on
        # the left), so polling declares one period before the analytic
        # worst case — the analytic face stays conservative.
        det = self._detector(FailureEvent(1, 10.0, 13.0))
        det.sweep(0.0, 20.0)
        fails = [e for e in det.events if e.kind == "failure"]
        assert [e.t_detected for e in fails] == [12.0]
        assert det.detection_fire_time(1, 10.0) == 13.0
        assert det.detected_down(1, 13.5)
        assert det.next_detected_alive(1, 13.0) == 14.0

    def test_recovery_before_detection_fires(self):
        # A 1.7s blip misses one heartbeat: both faces stay silent.
        det = self._detector(FailureEvent(1, 10.2, 11.9))
        det.sweep(0.0, 20.0)
        assert det.events == []
        assert det.declared_down_nodes() == []
        assert math.isinf(det.detection_fire_time(1, 10.5))
        for t in (10.5, 13.5, 15.0):
            assert not det.detected_down(1, t)
            assert det.next_detected_alive(1, t) == t

    def test_sweep_rejects_reversed_window(self):
        det = self._detector()
        with pytest.raises(ValueError):
            det.sweep(5.0, 4.0)


class TestCheckpointAliasing:
    """Checkpoints alias the saved hierarchy; replay never mutates one."""

    def test_default_aliases_the_saved_hierarchy(self, small_hierarchy):
        store = CheckpointStore()
        mutable = small_hierarchy.copy()
        store.save(0, 0.0, mutable)
        mutable.levels.pop()            # in-place regrid-style mutation
        ck, _ = store.restore()
        # Documented hazard: the checkpoint tracks the caller's mutations.
        assert ck.hierarchy is mutable
        assert ck.hierarchy.total_cells == mutable.total_cells

    def test_replay_never_mutates_snapshots(self, small_rm3d_trace):
        """Incremental replay only diffs snapshots: a fault-tolerant
        replay with recoveries leaves every snapshot as it found it, with
        the reuse cache on or off, and both give the same result."""

        def snapshots() -> list[str]:
            return [json.dumps(s.to_dict(), sort_keys=True)
                    for s in small_rm3d_trace]

        def result_digest(res) -> str:
            payload = repr((
                res.records, res.useful_work, res.ghost_work,
                res.proc_work.tobytes(), res.recovery_events,
            ))
            return hashlib.sha256(payload.encode()).hexdigest()

        before = snapshots()
        digests = []
        for incremental in (True, False):
            cluster = sp2_blue_horizon(8)
            cluster.failures.events.extend(FailureSchedule.poisson(
                num_nodes=8, horizon=3000.0, mtbf=250.0, mttr=40.0, seed=11,
            ).events)
            res = ExecutionSimulator(cluster, options=SimulatorOptions(
                fault_tolerance=FaultTolerance(), incremental=incremental,
            )).run(small_rm3d_trace, MetaPartitioner())
            assert res.num_recoveries >= 1
            assert snapshots() == before
            digests.append(result_digest(res))
        assert digests[0] == digests[1]
