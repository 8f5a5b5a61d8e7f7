"""The adaptive meta-partitioner (Section 4.3).

"P_t = F(A_t, C_t): the partitioning technique P selected at a given time
t should be a function of the state of the application A and the computer
system C at that time.  ...  the runtime environment is characterized
using the octant approach and current application and system state.  Based
on the octant state, the most appropriate partitioning technique is
selected from a database of available partitioning techniques, configured
with appropriate parameters such as partitioning granularity and
threshold, and then invoked."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.amr.trace import Snapshot
from repro.execsim.selector import PartitionerSelector, SelectorDecision
from repro.partitioners import PARTITIONER_REGISTRY
from repro.partitioners.base import Partitioner
from repro.policy.defaults import default_policy_base
from repro.policy.kb import PolicyKnowledgeBase
from repro.policy.octant import (
    Octant,
    OctantThresholds,
    classify_hierarchy,
)

__all__ = ["MetaPartitioner"]


@dataclass(slots=True)
class MetaPartitioner(PartitionerSelector):
    """Octant-driven runtime partitioner selection.

    Each regrid step the snapshot is classified into an octant, the policy
    base is queried for that octant's recommendation, and the named
    partitioner is instantiated (and cached) with the policy's
    configuration.  ``hysteresis`` regrids keep the previous choice unless
    the octant persists, preventing thrash at octant boundaries (the
    repartition_hysteresis policy parameter).
    """

    kb: PolicyKnowledgeBase = field(default_factory=default_policy_base)
    thresholds: OctantThresholds = field(default_factory=OctantThresholds)
    system_state: dict = field(default_factory=dict)
    hysteresis: int = 0
    _instances: dict[str, Partitioner] = field(default_factory=dict, repr=False)
    _last: SelectorDecision | None = field(default=None, repr=False)
    _pending_octant: Octant | None = field(default=None, repr=False)
    _pending_count: int = field(default=0, repr=False)
    selections: list[tuple[int, str, str]] = field(default_factory=list)

    def decide(
        self, snapshot: Snapshot, previous: Snapshot | None
    ) -> SelectorDecision:
        octant, _signals = classify_hierarchy(
            snapshot.hierarchy,
            previous.hierarchy if previous is not None else None,
            self.thresholds,
        )
        obs.counter("meta.classifications", octant=octant.value).inc()
        decision = self._decision_for(octant)
        decision = self._apply_hysteresis(octant, decision)
        if self.selections and decision.label != self.selections[-1][2]:
            obs.counter("meta.switches").inc()
            w = obs.current()
            if w is not None:
                w.timeline.event(
                    "partitioner-switch",
                    t=float(snapshot.step),
                    step=snapshot.step,
                    octant=decision.octant or octant.value,
                    from_partitioner=self.selections[-1][2],
                    to_partitioner=decision.label,
                )
        self.selections.append(
            (snapshot.step, decision.octant or octant.value, decision.label)
        )
        return decision

    def decide_for_octant(self, octant: Octant) -> SelectorDecision:
        """Policy lookup without classification (used by benches/tests)."""
        return self._decision_for(octant)

    # -- internals ---------------------------------------------------------------

    def _decision_for(self, octant: Octant) -> SelectorDecision:
        state = {"octant": octant, **self.system_state}
        action = self.kb.merged_action(state)
        if "partitioner" not in action:
            obs.counter("meta.policy_lookups", result="miss").inc()
            raise LookupError(
                f"policy base has no partitioner recommendation for "
                f"octant {octant.value}"
            )
        obs.counter("meta.policy_lookups", result="hit").inc()
        name = action["partitioner"]
        if name not in PARTITIONER_REGISTRY:
            raise LookupError(f"policy recommends unknown partitioner {name!r}")
        if name not in self._instances:
            self._instances[name] = PARTITIONER_REGISTRY[name]()
        return SelectorDecision(
            partitioner=self._instances[name],
            granularity=int(action.get("granularity", 4)),
            label=name,
            octant=octant.value,
        )

    def _apply_hysteresis(
        self, octant: Octant, decision: SelectorDecision
    ) -> SelectorDecision:
        if self.hysteresis <= 0 or self._last is None:
            self._last = decision
            self._pending_octant = None
            return decision
        if decision.label == self._last.label:
            self._pending_octant = None
            self._last = decision
            return decision
        # A different recommendation: require it to persist.
        if self._pending_octant is octant:
            self._pending_count += 1
        else:
            self._pending_octant = octant
            self._pending_count = 1
        if self._pending_count > self.hysteresis:
            self._last = decision
            self._pending_octant = None
            return decision
        # Keep the previous partitioner but report the new octant.
        obs.counter("meta.hysteresis_holds").inc()
        prev = self._last
        return SelectorDecision(
            partitioner=prev.partitioner,
            granularity=prev.granularity,
            label=prev.label,
            octant=octant.value,
        )
