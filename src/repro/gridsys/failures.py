"""Failure injection for the simulated grid.

The paper lists "respond to system failures" among the control network's
responsibilities; the agent layer's fault paths (suspend / checkpoint /
migrate) and the execution simulator's rollback/repartition path
(:mod:`repro.resilience`) are exercised against schedules from this
module.

Grid nodes do not merely die — they slow down, flap, and lose
connectivity.  Beyond crash-stop :class:`FailureEvent` outages the
vocabulary covers the gray-failure modes the runtime must respond to
*proportionally*:

- :class:`DegradedWindow` — a node running at a fraction of its capacity
  (thermal throttling, co-tenant load).  The right response is a capacity
  down-weight through system-sensitive partitioning, never eviction.
- :class:`FlappingNode` — a node cycling through short outages.  Naive
  eviction triggers a rollback storm; eviction hysteresis bounds it.
- :class:`NetworkPartition` — groups of endpoints that cannot reach each
  other for a window.  Messages across the cut dead-letter instead of
  delivering.

Liveness queries are hot — the execution simulator asks ``is_alive`` per
processor per coarse step — so the schedule keeps a per-node index of
events sorted by ``t_fail`` with a prefix-max of ``t_recover``, giving
O(log events-per-node) lookups instead of a linear scan over the whole
schedule.  The index is rebuilt lazily after mutation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.util.rng import ensure_rng

__all__ = [
    "FailureEvent",
    "DegradedWindow",
    "FlappingNode",
    "NetworkPartition",
    "FailureSchedule",
]


@dataclass(frozen=True, slots=True)
class FailureEvent:
    """One node outage: down during ``[t_fail, t_recover)``.

    ``t_recover`` may be ``inf`` for a permanent failure.
    """

    node_id: int
    t_fail: float
    t_recover: float = float("inf")

    def __post_init__(self) -> None:
        if self.t_fail < 0:
            raise ValueError(f"t_fail must be >= 0, got {self.t_fail}")
        if self.t_recover <= self.t_fail:
            raise ValueError(
                f"t_recover ({self.t_recover}) must exceed t_fail ({self.t_fail})"
            )

    def is_down(self, t: float) -> bool:
        """True while the node is failed at time ``t``."""
        return self.t_fail <= t < self.t_recover

    @property
    def duration(self) -> float:
        """Outage length in seconds (``inf`` for a permanent failure)."""
        return self.t_recover - self.t_fail


@dataclass(frozen=True, slots=True)
class DegradedWindow:
    """A node running slow — not dead — during ``[t_start, t_end)``.

    ``capacity_factor`` is the fraction of nominal capacity the node
    retains (0 < factor < 1).  Overlapping windows on the same node
    multiply.
    """

    node_id: int
    t_start: float
    t_end: float
    capacity_factor: float

    def __post_init__(self) -> None:
        if self.t_start < 0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if self.t_end <= self.t_start:
            raise ValueError(
                f"t_end ({self.t_end}) must exceed t_start ({self.t_start})"
            )
        if not 0.0 < self.capacity_factor < 1.0:
            raise ValueError(
                f"capacity_factor must be in (0, 1), got {self.capacity_factor}"
            )

    def active(self, t: float) -> bool:
        """True while the degradation applies at time ``t``."""
        return self.t_start <= t < self.t_end


@dataclass(frozen=True, slots=True)
class FlappingNode:
    """A node cycling through short outages during ``[t_start, t_end)``.

    Every ``period`` seconds the node goes down for ``down_time`` seconds.
    :meth:`events` expands the spec into the equivalent crash-stop
    :class:`FailureEvent` list; :meth:`FailureSchedule.add_flapping`
    registers them directly.
    """

    node_id: int
    t_start: float
    t_end: float
    period: float
    down_time: float

    def __post_init__(self) -> None:
        if self.t_start < 0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if self.t_end <= self.t_start:
            raise ValueError(
                f"t_end ({self.t_end}) must exceed t_start ({self.t_start})"
            )
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0.0 < self.down_time < self.period:
            raise ValueError(
                f"down_time must be in (0, period), got {self.down_time}"
            )

    def events(self) -> list[FailureEvent]:
        """The flap cycle as discrete outages (clipped to the window)."""
        out: list[FailureEvent] = []
        t = self.t_start
        while t < self.t_end:
            out.append(
                FailureEvent(
                    self.node_id, t, min(t + self.down_time, self.t_end)
                )
            )
            t += self.period
        return out

    @property
    def num_flaps(self) -> int:
        """Outages the spec expands to."""
        return int(math.ceil((self.t_end - self.t_start) / self.period))


@dataclass(frozen=True, slots=True)
class NetworkPartition:
    """Connectivity split into ``groups`` during ``[t_start, t_end)``.

    Members are opaque endpoint ids (node ids or port-group labels — the
    message center binds ports to members).  Endpoints in different
    groups cannot exchange messages while the partition is active; an
    endpoint in no group is on a control plane reachable from everywhere.
    """

    t_start: float
    t_end: float
    groups: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if self.t_start < 0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if self.t_end <= self.t_start:
            raise ValueError(
                f"t_end ({self.t_end}) must exceed t_start ({self.t_start})"
            )
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        seen: set = set()
        for group in self.groups:
            for member in group:
                if member in seen:
                    raise ValueError(
                        f"member {member!r} appears in more than one group"
                    )
                seen.add(member)

    def active(self, t: float) -> bool:
        """True while the partition is in effect at time ``t``."""
        return self.t_start <= t < self.t_end

    def group_of(self, member) -> int | None:
        """Index of the group containing ``member`` (``None`` if unlisted)."""
        for i, group in enumerate(self.groups):
            if member in group:
                return i
        return None

    def severed(self, a, b, t: float) -> bool:
        """True when ``a`` and ``b`` cannot communicate at time ``t``."""
        if not self.active(t):
            return False
        ga, gb = self.group_of(a), self.group_of(b)
        return ga is not None and gb is not None and ga != gb


@dataclass(slots=True)
class FailureSchedule:
    """A set of failure events queryable by (node, time).

    Besides crash-stop :attr:`events`, the schedule carries the gray
    faults: :attr:`degraded` capacity windows (queried through
    :meth:`capacity_factor`) and :attr:`partitions` (queried through
    :meth:`severed`).  Flapping specs expand into ordinary events via
    :meth:`add_flapping`.
    """

    events: list[FailureEvent] = field(default_factory=list)
    degraded: list[DegradedWindow] = field(default_factory=list)
    partitions: list[NetworkPartition] = field(default_factory=list)
    #: lazily rebuilt per-node index: node -> (sorted t_fails, events
    #: sorted by t_fail, prefix-max of t_recover).  The prefix-max makes
    #: liveness correct even for overlapping hand-added outages.
    _index: dict[int, tuple[list[float], list[FailureEvent], list[float]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _indexed_len: int = field(default=-1, repr=False, compare=False)

    def add(self, event: FailureEvent) -> None:
        """Register a failure event."""
        self.events.append(event)

    def add_degraded(self, window: DegradedWindow) -> None:
        """Register a degraded-capacity window."""
        self.degraded.append(window)

    def add_partition(self, partition: NetworkPartition) -> None:
        """Register a network partition."""
        self.partitions.append(partition)

    def add_flapping(self, spec: FlappingNode) -> list[FailureEvent]:
        """Expand a flapping spec into events; returns what was added."""
        events = spec.events()
        self.events.extend(events)
        return events

    def capacity_factor(self, node_id: int, t: float) -> float:
        """Fraction of nominal capacity ``node_id`` retains at ``t``.

        1.0 when healthy; overlapping degraded windows multiply.  This is
        orthogonal to liveness — a degraded node is slow, not dead.
        """
        if not self.degraded:
            return 1.0
        factor = 1.0
        for w in self.degraded:
            if w.node_id == node_id and w.active(t):
                factor *= w.capacity_factor
        return factor

    def severed(self, a, b, t: float) -> bool:
        """True when any registered partition severs ``a`` from ``b`` at ``t``."""
        return any(p.severed(a, b, t) for p in self.partitions)

    def _node_index(
        self, node_id: int
    ) -> tuple[list[float], list[FailureEvent], list[float]] | None:
        if self._indexed_len != len(self.events):
            by_node: dict[int, list[FailureEvent]] = {}
            for e in self.events:
                by_node.setdefault(e.node_id, []).append(e)
            self._index = {}
            for node, evs in by_node.items():
                evs.sort(key=lambda e: e.t_fail)
                prefix_max: list[float] = []
                running = -math.inf
                for e in evs:
                    running = max(running, e.t_recover)
                    prefix_max.append(running)
                self._index[node] = ([e.t_fail for e in evs], evs, prefix_max)
            self._indexed_len = len(self.events)
        return self._index.get(node_id)

    def is_alive(self, node_id: int, t: float) -> bool:
        """True unless some event has ``node_id`` down at ``t``.

        O(log k) in the node's event count via the per-node index.
        """
        idx = self._node_index(node_id)
        if idx is None:
            return True
        t_fails, _, prefix_max = idx
        pos = bisect_right(t_fails, t)
        if pos == 0:
            return True
        return prefix_max[pos - 1] <= t

    def failures_in(self, t0: float, t1: float) -> list[FailureEvent]:
        """Events whose failure time falls in ``[t0, t1)``.

        Note this misses outages that *began* before ``t0`` but are still
        in progress during the window — detectors scanning windows want
        :meth:`down_during` instead.
        """
        if t1 < t0:
            raise ValueError(f"need t1 >= t0, got [{t0}, {t1})")
        return [e for e in self.events if t0 <= e.t_fail < t1]

    def down_during(self, t0: float, t1: float) -> list[FailureEvent]:
        """Events overlapping the window ``[t0, t1)`` at any point.

        Unlike :meth:`failures_in`, this includes outages that began
        before ``t0`` and are still unrepaired inside the window — the
        query a window-scanning failure detector actually needs.
        """
        if t1 < t0:
            raise ValueError(f"need t1 >= t0, got [{t0}, {t1})")
        return [e for e in self.events if e.t_fail < t1 and e.t_recover > t0]

    def next_alive_time(self, node_id: int, t: float) -> float:
        """Earliest time ``>= t`` at which ``node_id`` is up.

        ``t`` itself when the node is already alive; ``inf`` for a
        permanent failure in progress.
        """
        idx = self._node_index(node_id)
        if idx is None:
            return t
        t_fails, events, prefix_max = idx
        cur = t
        pos = bisect_right(t_fails, cur)
        # Overlapping outages can extend each other, so iterate until no
        # event covering ``cur`` remains (each pass strictly advances cur).
        while pos > 0 and prefix_max[pos - 1] > cur:
            cur = max(e.t_recover for e in events[:pos] if e.t_recover > cur)
            if math.isinf(cur):
                return cur
            pos = bisect_right(t_fails, cur)
        return cur

    @classmethod
    def poisson(
        cls,
        num_nodes: int,
        horizon: float,
        mtbf: float,
        mttr: float,
        seed: int | None = 0,
    ) -> "FailureSchedule":
        """Random schedule: per-node Poisson failures, exponential repairs."""
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if mtbf <= 0 or mttr <= 0:
            raise ValueError("mtbf and mttr must be positive")
        rng = ensure_rng(seed)
        sched = cls()
        for node in range(num_nodes):
            t = float(rng.exponential(mtbf))
            while t < horizon:
                repair = float(rng.exponential(mttr))
                sched.add(FailureEvent(node, t, t + repair))
                t += repair + float(rng.exponential(mtbf))
        return sched
