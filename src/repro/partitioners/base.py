"""Partitioner interface and the Partition result object."""

from __future__ import annotations

import abc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.partitioners.units import CompositeUnits

__all__ = ["PartitionError", "Partition", "Partitioner", "CutRecord",
           "cut_record", "deterministic_partition_time"]

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


@dataclass(frozen=True, slots=True)
class CutRecord:
    """The cut of a partition: adjacency pairs whose units differ in owner.

    Arrays are aligned, one entry per cut pair, in pair order (the order
    of the adjacency arrays the pairs were taken from).  The PAC
    communication component and the cost model's comm terms both read
    it; each applies its own final float expression to ``face`` and
    ``density`` (both score a pair by the mean of its two densities).
    """

    pairs: np.ndarray      # index of each cut pair in the adjacency arrays
    owner_i: np.ndarray    # owner of the lower endpoint ``i[pairs]``
    owner_j: np.ndarray    # owner of the upper endpoint ``j[pairs]``
    face: np.ndarray       # face area in base cells (float)
    density: np.ndarray    # sum of the endpoints' load / max(cells, 1)


def cut_record(
    i: np.ndarray,
    j: np.ndarray,
    axis: np.ndarray,
    pairs: np.ndarray,
    assignment: np.ndarray,
    shapes: np.ndarray,
    loads: np.ndarray,
) -> CutRecord:
    """Gather the cut-sized arrays for the cut-pair indices ``pairs``.

    ``(i, j, axis)`` are adjacency pairs of units with extents
    ``shapes`` (n, 3) and ``loads``; ``pairs`` are the ascending indices
    of the pairs whose endpoints have different owners in
    ``assignment``.  The record's arrays are read-only; ``pairs`` is held
    as given (not copied) and made read-only too.
    """
    ic = i[pairs]
    jc = j[pairs]
    # Extents of both endpoints, one gather per axis.  Cell counts and
    # face areas are exact integer products, so the densities and areas
    # equal the oracles' all-pairs values bit for bit.
    ei = [extent[ic] for extent in shapes.T]
    ej = [extent[jc] for extent in shapes.T]
    density = loads[ic] / np.maximum(ei[0] * ei[1] * ei[2], 1.0)
    density += loads[jc] / np.maximum(ej[0] * ej[1] * ej[2], 1.0)
    # Face area: the smaller extents along the two axes orthogonal to
    # the pair's axis.
    mx, my, mz = (np.minimum(a, b, out=a) for a, b in zip(ei, ej))
    del ej  # a large cut's temporaries set the replay's peak RSS
    ax = axis[pairs]
    face = np.where(ax == 0, my * mz, np.where(ax == 1, mx * mz, mx * my))
    record = CutRecord(
        pairs=pairs,
        owner_i=assignment[ic],
        owner_j=assignment[jc],
        face=face.astype(float),
        density=density,
    )
    for arr in (pairs, record.owner_i, record.owner_j, record.face,
                density):
        arr.setflags(write=False)
    return record


@dataclass(frozen=True, slots=True)
class Partition:
    """An assignment of composite units to processors.

    ``assignment[i]`` is the owner of the unit at curve position ``i``.
    ``partition_time`` is the cost of computing the partition — one of
    the paper's five quality components; modeled (deterministic) unless
    the caller asked :meth:`Partitioner.partition` to measure wall clock.

    A partition is immutable once built: ``assignment`` is read-only, so
    the owner lattice, the cut and the processor loads are computed once
    and held.
    """

    units: CompositeUnits
    num_procs: int
    assignment: np.ndarray
    partitioner_name: str
    partition_time: float = 0.0
    params: dict = field(default_factory=dict)
    _owners: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _cut: CutRecord | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _loads: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=int)
        if assignment is self.assignment and assignment.flags.writeable:
            # the caller's own writable array: keep a private copy
            assignment = assignment.copy()
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        if assignment.shape != (len(self.units),):
            raise ValueError(
                f"assignment length {assignment.shape} does not match "
                f"{len(self.units)} units"
            )
        if self.num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {self.num_procs}")
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= self.num_procs
        ):
            raise ValueError("assignment references processors out of range")

    def proc_loads(self) -> np.ndarray:
        """Total composite load per processor (read-only, computed once)."""
        loads = self._loads
        if loads is None:
            loads = np.bincount(
                self.assignment, weights=self.units.loads,
                minlength=self.num_procs,
            )
            loads.setflags(write=False)
            object.__setattr__(self, "_loads", loads)
        return loads

    def owner_lattice(self) -> np.ndarray:
        """Owner of each unit on the unit lattice (nx, ny, nz); read-only."""
        owners = self._owners
        if owners is None:
            owners = self.assignment[self.units.curve_position].reshape(
                self.units.grid_shape
            )
            owners.setflags(write=False)
            object.__setattr__(self, "_owners", owners)
        return owners

    def cut(self) -> CutRecord:
        """The cut of the partition (computed once).

        Found on the owner lattice with one strided compare per axis,
        concatenated axis-major in C order — the order in which
        :meth:`CompositeUnits.adjacency_arrays` lists the pairs — so
        only the cut pairs are ever gathered.
        """
        record = self._cut
        if record is None:
            lat = self.owner_lattice()
            crossed = np.concatenate([
                (lat[1:] != lat[:-1]).ravel(),
                (lat[:, 1:] != lat[:, :-1]).ravel(),
                (lat[:, :, 1:] != lat[:, :, :-1]).ravel(),
            ])
            units = self.units
            i, j, axis = units.adjacency_arrays()
            record = cut_record(
                i, j, axis, np.flatnonzero(crossed), self.assignment,
                units.unit_shapes(), units.loads,
            )
            object.__setattr__(self, "_cut", record)
        return record

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
