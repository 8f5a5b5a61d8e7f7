"""Partitioner interface and the Partition result object."""

from __future__ import annotations

import abc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.partitioners.units import CompositeUnits

__all__ = ["PartitionError", "Partition", "Partitioner",
           "deterministic_partition_time"]

#: when set, partition() reports this modeled per-unit cost instead of
#: measured wall-clock (see :func:`deterministic_partition_time`).
#: Thread-local: the serving runtime scopes the override per worker
#: thread, so concurrent jobs must not see each other's set/restore.
_MODELED_TIME = threading.local()

#: default modeled cost — the order of the measured per-unit cost of the
#: ISP-family partitioners on this codebase
DEFAULT_SECONDS_PER_UNIT = 1e-7


@contextmanager
def deterministic_partition_time(
    seconds_per_unit: float = DEFAULT_SECONDS_PER_UNIT,
):
    """Scope overriding the modeled per-unit partition cost.

    ``Partition.partition_time`` is modeled as
    ``seconds_per_unit * len(units)`` by default (see
    :meth:`Partitioner.partition`), so this context is only needed to
    *change* the per-unit cost — e.g. the scenario sweep engine
    (:mod:`repro.sweep`) pins it explicitly so sweep digests are
    insensitive to any future default change.  The override is
    thread-local, so concurrent server workers each scoping it cannot
    clobber (or leak) each other's value.
    """
    prev = getattr(_MODELED_TIME, "seconds_per_unit", None)
    _MODELED_TIME.seconds_per_unit = float(seconds_per_unit)
    try:
        yield
    finally:
        _MODELED_TIME.seconds_per_unit = prev


class PartitionError(RuntimeError):
    """A partitioner could not produce a valid assignment."""


@dataclass(slots=True)
class Partition:
    """An assignment of composite units to processors.

    ``assignment[i]`` is the owner of the unit at curve position ``i``.
    ``partition_time`` is the cost of computing the partition — one of
    the paper's five quality components; modeled (deterministic) unless
    the caller asked :meth:`Partitioner.partition` to measure wall clock.
    """

    units: CompositeUnits
    num_procs: int
    assignment: np.ndarray
    partitioner_name: str
    partition_time: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=int)
        if self.assignment.shape != (len(self.units),):
            raise ValueError(
                f"assignment length {self.assignment.shape} does not match "
                f"{len(self.units)} units"
            )
        if self.num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {self.num_procs}")
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= self.num_procs
        ):
            raise ValueError("assignment references processors out of range")

    def proc_loads(self) -> np.ndarray:
        """Total composite load per processor."""
        return np.bincount(
            self.assignment, weights=self.units.loads, minlength=self.num_procs
        )

    def owner_lattice(self) -> np.ndarray:
        """Owner of each unit arranged on the unit lattice (nx, ny, nz)."""
        lat = self.assignment[self.units.curve_position]
        return lat.reshape(self.units.grid_shape)

    def subdomain_count(self) -> int:
        """Number of contiguous (curve-order) ownership runs."""
        if self.assignment.size == 0:
            return 0
        return int(1 + np.count_nonzero(np.diff(self.assignment)))

    def rect_fragments(self) -> int:
        """Approximate count of rectangular patches the partition induces.

        This is the "partitioning induced overheads" component of the PAC
        metric: every owned region must be realized as axis-aligned
        patches, and jagged curve segments decompose into many more boxes
        than pBD-ISP's rectangles.  Counted by 2.5-D greedy run merging:
        maximal same-owner x-runs, merged across y when the neighboring
        column carries an identical run (same owner, same x-extent); z
        sheets are counted separately, so a uniform owner measures one
        fragment per z-sheet.
        """
        # x-fastest layout: each (y, z) column is one contiguous row.
        lat = self.owner_lattice().transpose(2, 1, 0)
        # Start of an x-run: first cell of a column or owner change.
        start = np.ones(lat.shape, dtype=bool)
        start[..., 1:] = lat[..., 1:] != lat[..., :-1]
        # A run merges with its y-neighbor when every cell of the column
        # pair agrees in owner AND the run-start pattern matches, i.e. the
        # runs have identical extent.  Runs at y == 0 never merge.
        keep = np.ones(lat.shape, dtype=bool)
        keep[:, 1:, :] = (lat[:, 1:, :] != lat[:, :-1, :]) | (
            start[:, 1:, :] != start[:, :-1, :]
        )
        # Number the runs with one cumsum over the flattening (every
        # column opens a new run) and count the runs holding a cell that
        # does not merge.
        run_id = np.cumsum(start.ravel()) - 1
        survives = np.zeros(int(run_id[-1]) + 1, dtype=bool)
        survives[run_id[keep.ravel()]] = True
        return int(np.count_nonzero(survives))


class Partitioner(abc.ABC):
    """Common interface of all SAMR partitioners."""

    #: name used in tables, the policy base, and the registry
    name: str = "abstract"
    #: patch-based schemes re-deal the entire patch list every regrid;
    #: domain-based schemes shift contiguous ranges incrementally
    full_redistribution: bool = False
    #: ghost messages exchanged per neighbor processor per step — a
    #: structural property of the partitioning style: one aggregated
    #: block exchange for rectangular subdomains (pBD-ISP), several
    #: per-fragment messages for variable-grain or patch-scattered
    #: schemes (see the partitioner characterization in [7] of the paper)
    messages_per_neighbor: float = 3.0

    @abc.abstractmethod
    def _assign(
        self,
        units: CompositeUnits,
        num_procs: int,
        capacities: np.ndarray | None,
    ) -> np.ndarray:
        """Produce the per-unit owner array (curve order)."""

    def partition(
        self,
        units: CompositeUnits,
        num_procs: int,
        capacities: np.ndarray | None = None,
        *,
        measure_wall_clock: bool = False,
    ) -> Partition:
        """Partition ``units`` over ``num_procs`` processors.

        ``capacities`` are optional relative processor capacities; most
        partitioners target equal shares and ignore them (the
        heterogeneous partitioner is the exception).

        ``partition_time`` is *modeled* (``seconds_per_unit * len(units)``,
        see :func:`deterministic_partition_time`) so that two identical
        calls return identical partitions — the execution simulator folds
        this time into simulated runtime, and measured wall clock made
        every downstream result nondeterministic.  Pass
        ``measure_wall_clock=True`` to opt back into real timing (profiling
        only; never inside reproducibility-gated paths).
        """
        if num_procs < 1:
            raise PartitionError(f"num_procs must be >= 1, got {num_procs}")
        if len(units) == 0:
            raise PartitionError("cannot partition zero units")
        if capacities is not None:
            capacities = np.asarray(capacities, dtype=float)
            if capacities.shape != (num_procs,):
                raise PartitionError(
                    f"capacities shape {capacities.shape} does not match "
                    f"num_procs {num_procs}"
                )
            if (capacities < 0).any() or capacities.sum() <= 0:
                raise PartitionError("capacities must be non-negative, sum > 0")
        t0 = time.perf_counter()
        assignment = self._assign(units, num_procs, capacities)
        if measure_wall_clock:
            elapsed = time.perf_counter() - t0
        else:
            per_unit = getattr(_MODELED_TIME, "seconds_per_unit", None)
            if per_unit is None:
                per_unit = DEFAULT_SECONDS_PER_UNIT
            elapsed = per_unit * len(units)
        return Partition(
            units=units,
            num_procs=num_procs,
            assignment=assignment,
            partitioner_name=self.name,
            partition_time=elapsed,
            params={
                "full_redistribution": self.full_redistribution,
                "messages_per_neighbor": self.messages_per_neighbor,
            },
        )
