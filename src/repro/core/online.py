"""Online adaptive management: the closed loop, without a pre-captured trace.

The Table 3/4 methodology characterizes a *recorded* trace.  This module
implements the loop the paper describes as the full Pragma system
(Section 4.7): the application runs; a characterization agent observes
each regrid, publishes octant transitions and load-threshold events to
the Message Center; and the runtime *repartitions only when an event
fires*, otherwise keeping the current decomposition (no migration, no
partitioning cost) and letting imbalance drift until the agents object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.agents.characterization_agent import CharacterizationAgent
from repro.agents.message_center import MessageCenter
from repro.amr.regrid import Regridder, RegridPolicy
from repro.amr.trace import Snapshot
from repro.apps.base import SyntheticApplication
from repro.core.meta_partitioner import MetaPartitioner
from repro.execsim.costmodel import CostModel
from repro.execsim.simulator import ExecutionSimulator, RunResult
from repro.gridsys.cluster import Cluster
from repro.partitioners.base import Partition
from repro.partitioners.metrics import evaluate_partition
from repro.partitioners.units import build_units
from repro.policy.octant import OctantThresholds
from repro.util.stats import max_load_imbalance_pct

__all__ = ["OnlineRunReport", "OnlineAdaptiveRuntime"]


@dataclass(slots=True)
class OnlineRunReport:
    """Outcome of an online adaptive run."""

    result: RunResult
    repartitions: int
    regrids: int
    events: list

    @property
    def repartition_fraction(self) -> float:
        """Share of regrid steps that actually repartitioned."""
        if self.regrids == 0:
            return 0.0
        return self.repartitions / self.regrids


class OnlineAdaptiveRuntime:
    """Event-driven adaptive partitioning of a live application."""

    def __init__(
        self,
        cluster: Cluster,
        num_procs: int | None = None,
        *,
        cost_model: CostModel | None = None,
        thresholds: OctantThresholds | None = None,
        load_jump_fraction: float = 0.25,
        imbalance_trigger_pct: float = 20.0,
    ) -> None:
        if imbalance_trigger_pct <= 0:
            raise ValueError(
                f"imbalance_trigger_pct must be positive, got "
                f"{imbalance_trigger_pct}"
            )
        self.cluster = cluster
        self.num_procs = num_procs or cluster.num_nodes
        self._sim = ExecutionSimulator(
            cluster, num_procs=self.num_procs, cost_model=cost_model
        )
        self.thresholds = thresholds or OctantThresholds()
        self.load_jump_fraction = load_jump_fraction
        self.imbalance_trigger_pct = imbalance_trigger_pct

    def run(
        self,
        app: SyntheticApplication,
        policy: RegridPolicy,
        num_coarse_steps: int,
        *,
        always_repartition: bool = False,
    ) -> OnlineRunReport:
        """Drive ``app`` for ``num_coarse_steps`` under event-driven control.

        With ``always_repartition=True`` the loop degenerates to the
        trace-replay behavior (repartition at every regrid) — the baseline
        the event-driven mode is compared against.
        """
        if num_coarse_steps < 1:
            raise ValueError(
                f"num_coarse_steps must be >= 1, got {num_coarse_steps}"
            )
        mc = MessageCenter()
        agent = CharacterizationAgent(
            mc,
            thresholds=self.thresholds,
            load_jump_fraction=self.load_jump_fraction,
        )
        listener = mc.register("online-runtime")
        mc.subscribe("online-runtime", "octant-transition")
        mc.subscribe("online-runtime", "load-threshold")
        meta = MetaPartitioner(thresholds=self.thresholds)

        regridder = Regridder(app.domain, policy)
        result = RunResult(proc_work=np.zeros(self.num_procs))
        partition: Partition | None = None
        decision = None
        owner_lattice: np.ndarray | None = None
        repartitions = 0
        regrids = 0
        events: list = []
        sim_time = 0.0

        for step in range(0, num_coarse_steps, policy.regrid_interval):
            hierarchy = regridder.regrid(
                app.error_field(step), app.load_field(step)
            )
            snapshot = Snapshot(step=step, hierarchy=hierarchy)
            octant = agent.observe(step, hierarchy)
            triggers = mc.drain(listener.name)
            events.extend(triggers)
            regrids += 1

            must_partition = (
                partition is None or always_repartition or bool(triggers)
            )
            if must_partition:
                decision = meta.decide_for_octant(octant)
                units = build_units(
                    hierarchy, granularity=decision.granularity
                )
                new_partition = decision.partitioner.partition(
                    units, self.num_procs
                )
                repartitions += 1
            else:
                # Keep the current decomposition: re-derive the assignment
                # from the retained owner lattice over the new loads.
                units = build_units(
                    hierarchy, granularity=decision.granularity
                )
                new_partition = self._carry_forward(
                    owner_lattice, units, decision
                )
                # Local load agents object when per-processor load drifts
                # past the threshold — the Section 4.7 repartition trigger.
                drift = max_load_imbalance_pct(new_partition.proc_loads())
                if drift > self.imbalance_trigger_pct:
                    decision = meta.decide_for_octant(octant)
                    new_partition = decision.partitioner.partition(
                        units, self.num_procs
                    )
                    must_partition = True
                    repartitions += 1
                    events.append(("load-imbalance", step, drift))
            metrics = evaluate_partition(new_partition, partition)
            owner_lattice = new_partition.owner_lattice()

            record = self._sim.commit_interval(
                result, snapshot, new_partition, metrics,
                label=decision.label, octant=octant.value,
                coarse_steps=min(
                    policy.regrid_interval, num_coarse_steps - step
                ),
                start_time=sim_time, repartitioned=must_partition,
            )
            sim_time += record.total_time
            partition = new_partition

        return OnlineRunReport(
            result=result,
            repartitions=repartitions,
            regrids=regrids,
            events=events,
        )

    def _carry_forward(
        self,
        owner_lattice: np.ndarray | None,
        units,
        decision,
    ) -> Partition:
        """Rebuild a Partition keeping the previous ownership geometry."""
        assert owner_lattice is not None and decision is not None
        if owner_lattice.shape != units.grid_shape:
            # The unit lattice changed (different granularity choice):
            # fall back to a fresh partition.
            return decision.partitioner.partition(units, self.num_procs)
        assignment = owner_lattice.reshape(-1)[units.lattice_index]
        return Partition(
            units=units,
            num_procs=self.num_procs,
            assignment=assignment,
            partitioner_name=decision.partitioner.name,
            partition_time=0.0,
            params={"carried_forward": True,
                    "messages_per_neighbor":
                        decision.partitioner.messages_per_neighbor},
        )
