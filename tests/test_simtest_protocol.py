"""Wire-protocol edge cases under simulated schedules.

Satellite to the simtest harness: fixed, hand-written workloads aimed at
specific protocol windows — a cancel racing the terminal commit, a drain
landing inside a duplicate-submit burst — swept across many seeded
schedules so both sides of each race actually occur; plus a stats-stream
that keeps ticking across an injected worker death on a real server,
paced by an injected sleeper instead of wall-clock sleeps.
"""

from __future__ import annotations

from repro.serve.jsonl import Session
from repro.serve.server import ScenarioServer
from repro.simtest import WorkloadScript, run_script
from repro.simtest.world import register_sim_scenarios


def _trace_kinds(report):
    return {rec["kind"] for rec in report.trace if rec.get("e") == "ev"}


class TestCancelRacesTerminalCommit:
    """One client cancels while the job is anywhere between queued and
    committed; every schedule must end in a clean terminal state."""

    SCRIPT = WorkloadScript(ops=[
        {"op": "submit", "client": 0, "handle": "h1",
         "scenario": "sim-slow", "x": 2, "priority": "normal"},
        {"op": "cancel", "client": 1, "handle": "h1"},
        {"op": "await", "client": 0, "handle": "h1"},
    ])

    def test_all_schedules_green_and_both_outcomes_reachable(self):
        outcomes = set()
        for seed in range(40):
            report = run_script(self.SCRIPT, seed)
            assert report.ok, (seed, report.violations)
            for rec in report.trace:
                if rec.get("e") == "await-result":
                    outcomes.add(rec["status"])
        # the sweep must actually exercise both sides of the race:
        # cancel landing before dispatch and cancel losing to the commit
        assert {"cancelled", "done"} <= outcomes, outcomes


class TestDrainDuringDuplicateBurst:
    """Same-key submits force dedup attaches; a drain lands mid-burst
    while twins are attaching and the queue is bouncing off capacity."""

    @staticmethod
    def _script() -> WorkloadScript:
        ops = []
        for i in range(1, 7):
            ops.append({
                "op": "submit", "client": i % 2, "handle": f"h{i}",
                "scenario": "sim-fast", "x": 1, "priority": "normal",
            })
            if i == 3:
                ops.append({"op": "drain", "client": 0})
        for i in range(1, 7):
            ops.append({"op": "await", "client": 0, "handle": f"h{i}"})
        return WorkloadScript(
            ops=ops, workers=2, clients=2, queue_capacity=3,
            max_batch=2, use_cache=False, max_retries=0,
        )

    def test_burst_is_green_and_dedup_is_exercised(self):
        script = self._script()
        kinds = set()
        drained = False
        for seed in range(25):
            report = run_script(script, seed)
            assert report.ok, (seed, report.violations)
            kinds |= _trace_kinds(report)
            drained = drained or any(
                rec.get("e") == "drain-result" and rec["ok"]
                for rec in report.trace
            )
        assert "dedup-attach" in kinds, kinds
        assert drained


class TestStatsStreamAcrossWorkerDeath:
    """The telemetry stream must keep ticking while the only worker
    dies and retries — paced by the injected sleeper, no wall sleeps."""

    def test_stream_ticks_through_death_and_retry(self):
        register_sim_scenarios()  # sim_yield is a no-op off-schedule
        server = ScenarioServer(
            workers=1,
            scenario_modules=(),
            death_injector=lambda job, attempt: (
                "before" if attempt == 0 else None
            ),
            max_retries=2,
        )
        try:
            ticks: list[float] = []
            session = Session(server, sleeper=ticks.append)
            resp = session.dispatch({
                "op": "submit", "id": "r1",
                "scenario": "sim-fast", "params": {"x": 3},
            })
            assert resp["op"] == "accepted"
            frames = list(session.dispatch_iter({
                "op": "stats-stream", "count": 3, "interval_s": 0.5,
            }))
            assert [f["seq"] for f in frames] == [0, 1, 2]
            assert all(f["of"] == 3 for f in frames)
            assert ticks == [0.5, 0.5]  # sleeper paced, never slept
            result = session.dispatch({
                "op": "result", "id": "r1", "timeout_s": 30,
            })
            assert result["status"] == "done"
            assert result["result"]["square"] == 9
            # the death actually happened and was retried through
            assert server.metrics.counter_value("serve.worker_deaths") >= 1
            assert server.metrics.counter_value("serve.retries") >= 1
        finally:
            server.shutdown()
