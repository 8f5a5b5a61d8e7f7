"""Cluster: nodes + network + dynamics, with presets for the paper's testbeds."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.apps.loadgen import LoadPattern, SyntheticLoadGenerator
from repro.gridsys.failures import FailureSchedule
from repro.gridsys.link import Link
from repro.gridsys.node import Node

__all__ = ["Cluster", "sp2_blue_horizon", "linux_cluster"]


@dataclass(slots=True)
class Cluster:
    """A simulated parallel machine.

    The network model is a single switched fabric: every pair of distinct
    nodes communicates over ``link``, intra-node communication is free.
    Background load (heterogeneity over time) comes from an optional
    :class:`SyntheticLoadGenerator`; failures from a
    :class:`FailureSchedule`.
    """

    nodes: list[Node]
    link: Link = field(default_factory=Link)
    loadgen: SyntheticLoadGenerator | None = None
    failures: FailureSchedule = field(default_factory=FailureSchedule)
    name: str = "cluster"

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        ids = [n.node_id for n in self.nodes]
        if ids != list(range(len(ids))):
            raise ValueError("node ids must be 0..n-1 in order")
        if self.loadgen is not None and self.loadgen.num_nodes != len(self.nodes):
            raise ValueError(
                f"load generator covers {self.loadgen.num_nodes} nodes, "
                f"cluster has {len(self.nodes)}"
            )

    @property
    def num_nodes(self) -> int:
        """Number of processing elements."""
        return len(self.nodes)

    def background_load(self, node_id: int, t: float) -> float:
        """Background CPU fraction in use on ``node_id`` at time ``t``."""
        if self.loadgen is None:
            return 0.0
        return self.loadgen.load_at(node_id, t)

    def effective_speed(self, node_id: int, t: float) -> float:
        """Work units per second available to the application at time ``t``.

        Zero while the node is failed; scaled down by any active
        :class:`~repro.gridsys.failures.DegradedWindow` (a gray failure —
        the node is slow, not dead).
        """
        node = self.nodes[node_id]
        if not self.failures.is_alive(node_id, t):
            return 0.0
        speed = node.cpu_speed * (1.0 - self.background_load(node_id, t))
        if self.failures.degraded:
            speed *= self.failures.capacity_factor(node_id, t)
        return speed

    def comm_time(self, src: int, dst: int, nbytes: float) -> float:
        """Transfer time between two nodes (0 for src == dst)."""
        for nid in (src, dst):
            if not (0 <= nid < self.num_nodes):
                raise ValueError(f"node {nid} out of range [0, {self.num_nodes})")
        if src == dst:
            return 0.0
        return self.link.transfer_time(nbytes)

    def speeds(self) -> np.ndarray:
        """Nominal (unloaded) per-node speeds."""
        return np.array([n.cpu_speed for n in self.nodes], dtype=float)


def sp2_blue_horizon(num_procs: int = 64) -> Cluster:
    """NPACI IBM SP2 'Blue Horizon'-like homogeneous MPP.

    Blue Horizon was POWER3 nodes on a proprietary switch: fast uniform
    CPUs, low-latency high-bandwidth interconnect, no background load.
    Absolute rates are chosen so the RM3D run lands in the paper's
    hundreds-of-seconds regime; only relative behavior matters.
    """
    if num_procs < 1:
        raise ValueError("num_procs must be >= 1")
    nodes = [Node(i, cpu_speed=1.05e6, memory=64.0e6) for i in range(num_procs)]
    link = Link(latency=2.0e-5, bandwidth=350.0e6)
    return Cluster(nodes=nodes, link=link, name=f"sp2-blue-horizon-{num_procs}")


def linux_cluster(
    num_nodes: int = 32,
    *,
    load_pattern: LoadPattern = LoadPattern.STEPPED,
    max_load: float = 0.75,
    seed: int = 42,
    speeds: Sequence[float] | None = None,
) -> Cluster:
    """32-node Linux workstation cluster on switched 100 Mb/s fast Ethernet.

    Matches the Section 4.6 testbed: commodity nodes, fast-Ethernet switch,
    plus the synthetic background load generator producing heterogeneous
    node capacities.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if speeds is None:
        node_speeds = [1.0e6] * num_nodes
    else:
        if len(speeds) != num_nodes:
            raise ValueError(
                f"got {len(speeds)} speeds for {num_nodes} nodes"
            )
        node_speeds = [float(s) for s in speeds]
    nodes = [Node(i, cpu_speed=s, memory=16.0e6) for i, s in enumerate(node_speeds)]
    link = Link(latency=1.2e-4, bandwidth=12.5e6)
    loadgen = SyntheticLoadGenerator(
        num_nodes=num_nodes, pattern=load_pattern, max_load=max_load, seed=seed
    )
    return Cluster(
        nodes=nodes, link=link, loadgen=loadgen, name=f"linux-cluster-{num_nodes}"
    )
