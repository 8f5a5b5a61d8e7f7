"""Pinned results of the execution simulator's interval integration.

Each case drives one path through :class:`ExecutionSimulator` — Poisson
crashes with rollback, flap stalls under eviction hysteresis, gray
down-weighting, total blackouts at an interval boundary and mid-interval,
durable checkpoints, plain stall-until-repair replay under background
load, checkpointed replay under background load with no failures, the
constant-speed fast path and the online loop — and hashes the whole
:class:`RunResult`.  The literals pin every float, record and
recovery event byte for byte, so a refactor of the simulator must leave
them unchanged.  Each case also checks that its path actually ran.
"""

import hashlib

import pytest

from repro import obs
from repro.amr.regrid import RegridPolicy
from repro.apps import RM3D, RM3DConfig
from repro.config import SimulatorOptions
from repro.core import OnlineAdaptiveRuntime
from repro.core.meta_partitioner import MetaPartitioner
from repro.execsim import ExecutionSimulator
from repro.gridsys import (
    DegradedWindow,
    FailureEvent,
    FailureSchedule,
    FlappingNode,
    linux_cluster,
    sp2_blue_horizon,
)
from repro.resilience import DetectorConfig, FaultTolerance


def result_digest(res) -> str:
    payload = repr((
        res.records, res.useful_work, res.ghost_work,
        res.proc_work.tobytes(), res.recovery_events,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def _poisson(cluster, seed=11):
    cluster.failures.events.extend(FailureSchedule.poisson(
        num_nodes=cluster.num_nodes, horizon=3000.0, mtbf=250.0, mttr=40.0,
        seed=seed,
    ).events)
    return cluster


def _replay(trace, cluster, ft=None):
    sim = ExecutionSimulator(
        cluster, options=SimulatorOptions(fault_tolerance=ft)
    )
    with obs.collect() as window:
        res = sim.run(trace, MetaPartitioner())
    return res, window.registry.counter_value


def case_poisson(trace, tmp_path):
    res, counter = _replay(trace, _poisson(sp2_blue_horizon(8)),
                           FaultTolerance())
    assert res.num_recoveries >= 1
    assert counter("resilience.degraded_partitions") >= 1
    return res


def case_flapping(trace, tmp_path):
    cluster = sp2_blue_horizon(8)
    cluster.failures.add_flapping(
        FlappingNode(3, 20.0, 90.0, period=12.0, down_time=4.0)
    )
    ft = FaultTolerance(detector=DetectorConfig(eviction_hysteresis_polls=3))
    res, counter = _replay(trace, cluster, ft)
    assert res.num_recoveries == 0
    assert counter("resilience.flap_suppressed") >= 1
    assert res.total_recovery_time > 0.0
    return res


def case_degraded(trace, tmp_path):
    cluster = sp2_blue_horizon(8)
    cluster.failures.add_degraded(
        DegradedWindow(2, 1.0, 1e9, capacity_factor=0.35)
    )
    cluster.failures.add(FailureEvent(5, 30.0, 70.0))
    res, counter = _replay(trace, cluster)
    assert res.num_recoveries >= 1
    assert counter("resilience.degraded_downweights") >= 1
    assert counter("resilience.degraded_partitions") >= 1
    return res


def case_blackout(trace, tmp_path):
    # The first blackout starts in the regrid gap after interval 4's last
    # step and is evicted before the next boundary; the second strikes
    # mid-interval and is found by the rollback.
    cluster = sp2_blue_horizon(4)
    for p in range(4):
        cluster.failures.add(FailureEvent(p, 162.3345298004048, 182.0))
        cluster.failures.add(FailureEvent(p, 300.0, 320.0))
    ft = FaultTolerance(detector=DetectorConfig(heartbeat_period=0.001))
    res, _ = _replay(trace, cluster, ft)
    assert any(r.recoveries == 0 and r.recovery_time > 15.0
               for r in res.records)
    assert any(len(e.failed_nodes) == 4 for e in res.recovery_events)
    return res


def case_durable(trace, tmp_path):
    res, _ = _replay(trace, _poisson(sp2_blue_horizon(8), seed=5),
                     FaultTolerance(checkpoint_dir=str(tmp_path)))
    assert res.num_recoveries >= 1
    assert list(tmp_path.iterdir())
    return res


def case_plain_outage(trace, tmp_path):
    cluster = linux_cluster(8, seed=7)
    cluster.failures.add(FailureEvent(1, 20.0, 40.0))
    res, _ = _replay(trace, cluster, False)
    assert cluster.loadgen is not None
    assert res.num_recoveries == 0 and res.total_recovery_time == 0.0
    assert max(r.comm_time for r in res.records) > 10.0
    return res


def case_checkpoint_under_load(trace, tmp_path):
    # An explicit FaultTolerance with no failure schedule: checkpoints are
    # charged every interval, no rollback runs, background load varies.
    cluster = linux_cluster(8, seed=7)
    res, _ = _replay(trace, cluster, FaultTolerance())
    assert cluster.loadgen is not None and not cluster.failures.events
    assert res.num_recoveries == 0 and res.total_checkpoint_time > 0.0
    return res


def case_constant_speed(trace, tmp_path):
    res, _ = _replay(trace, sp2_blue_horizon(8))
    assert res.total_checkpoint_time == 0.0
    return res


def case_online(trace, tmp_path):
    cfg = RM3DConfig(
        shape=(64, 16, 16), interface_x=20.0, shock_entry_snapshot=6.0,
        reshock_snapshot=30.0, num_seed_clumps=5, num_mixing_structures=10,
    )
    cluster = linux_cluster(8, seed=7)
    cluster.failures.add(FailureEvent(2, 15.0, 30.0))
    report = OnlineAdaptiveRuntime(cluster).run(
        RM3D(cfg), RegridPolicy(thresholds=(0.2, 0.45, 0.7), regrid_interval=4),
        80,
    )
    assert report.repartitions < report.regrids
    assert max(r.comm_time for r in report.result.records) > 10.0
    return report.result


EXPECTED = {
    case_poisson: (
        "be9e72e8b12cf51d1400aea17b2bf1606da5d83740973e3739bd97e0f1950e16"
    ),
    case_flapping: (
        "538e17d1e89fc48991e44adcd5c43616b0a60f594f7e0b4ebd9023de9d7fa817"
    ),
    case_degraded: (
        "87247530669a94327c9502b3eb0cdac88e91f595826bc40f55bc634165372fd4"
    ),
    case_blackout: (
        "e47807c98441b6d6ac2b0e23f9b8386baa8c80256e9c9a676e8fb93e4ae46049"
    ),
    case_durable: (
        "936580dcbedb86443f8dcaf3b11e2a46cc6f18135605f1817ef19b474d4f4e6c"
    ),
    case_plain_outage: (
        "4677d35b7f271b2035c145726a7b7628ae68fae097c149439c611ca6791e0340"
    ),
    case_checkpoint_under_load: (
        "6ba1fce798dc0e70ee9a14598bca1f81ddfdaae22eca705ac2fe06d46ec1122a"
    ),
    case_constant_speed: (
        "b7fa8e18c4d81d3e3098b648f80137309c4442f141e0b0f563fb7cd390fae23d"
    ),
    case_online: (
        "adf4103bf70cb57e25fe905b1e682ec60941967a55338225d11249439580f825"
    ),
}


@pytest.mark.parametrize("case", list(EXPECTED), ids=lambda c: c.__name__[5:])
def test_replay_digest_is_pinned(case, small_rm3d_trace, tmp_path):
    assert result_digest(case(small_rm3d_trace, tmp_path)) == EXPECTED[case]
