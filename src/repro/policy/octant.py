"""The octant approach for characterizing SAMR application state (Figure 2).

Application state is classified along three binary axes:

1. **Adaptation pattern** — localized (refinement concentrated in one
   contiguous region) vs scattered (many separate refined regions spread
   through the domain);
2. **Activity dynamics** — how fast the refinement footprint changes
   between regrids (a moving shock is high-dynamics, a slowly growing
   mixing zone is low-dynamics);
3. **Computation/communication dominance** — whether the hierarchy's
   runtime is dominated by cell updates (bulky refined regions) or by
   ghost-cell exchange (thin, high-surface refined regions).

Canonical octant numbering.  The paper's Figure 2 shows the cube without
an unambiguous bit assignment, so we fix the one that is consistent with
the Table 2 recommendations and the partitioner capabilities (pBD-ISP for
communication-dominated octants, the G-MISP+SP family for
computation-dominated ones):

===========  ==========  =========  =====
octant       pattern     dynamics   ratio
===========  ==========  =========  =====
I            localized   high       comm
II           scattered   high       comm
III          localized   high       comp
IV           scattered   high       comp
V            localized   low        comm
VI           scattered   low        comm
VII          localized   low        comp
VIII         scattered   low        comp
===========  ==========  =========  =====
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.amr.hierarchy import GridHierarchy
from repro.amr.trace import AdaptationTrace

__all__ = [
    "Octant",
    "OctantAxes",
    "OctantThresholds",
    "AppSignals",
    "OctantState",
    "classify_hierarchy",
    "classify_trace",
]


class Octant(enum.Enum):
    """Octants I–VIII of the application-state cube."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"
    VIII = "VIII"


@dataclass(frozen=True, slots=True)
class OctantAxes:
    """The three binary axis values behind an octant."""

    scattered: bool
    high_dynamics: bool
    comm_dominated: bool

    def octant(self) -> Octant:
        """Map axis values to the canonical octant numeral."""
        table = {
            (False, True, True): Octant.I,
            (True, True, True): Octant.II,
            (False, True, False): Octant.III,
            (True, True, False): Octant.IV,
            (False, False, True): Octant.V,
            (True, False, True): Octant.VI,
            (False, False, False): Octant.VII,
            (True, False, False): Octant.VIII,
        }
        return table[(self.scattered, self.high_dynamics, self.comm_dominated)]

    @classmethod
    def of(cls, octant: Octant) -> "OctantAxes":
        """Inverse of :meth:`octant`."""
        for scattered in (False, True):
            for dyn in (False, True):
                for comm in (False, True):
                    axes = cls(scattered, dyn, comm)
                    if axes.octant() is octant:
                        return axes
        raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True, slots=True)
class OctantThresholds:
    """Calibration of the three binary axis decisions.

    Defaults were calibrated on the RM3D reference trace; see the
    ``test_table3_rm3d_octants`` benchmark.
    """

    #: scattered if refined footprint has at least this many components ...
    min_components_scattered: int = 4
    #: ... or its normalized centroid spread exceeds this
    min_spread_scattered: float = 0.40
    #: high dynamics if footprint change fraction per regrid exceeds this
    min_activity_high: float = 0.18
    #: communication-dominated if surface-to-compute ratio exceeds this
    min_comm_ratio: float = 0.095

    def __post_init__(self) -> None:
        if self.min_components_scattered < 1:
            raise ValueError("min_components_scattered must be >= 1")
        for name in ("min_spread_scattered", "min_activity_high", "min_comm_ratio"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True, slots=True)
class AppSignals:
    """Raw application-characterization signals for one snapshot."""

    num_components: int      # connected refined regions
    spread: float            # normalized refined-centroid spread, [0, 1]
    activity: float          # refined-footprint change fraction vs previous
    comm_ratio: float        # ghost-surface to compute-load ratio
    refined_fraction: float  # refined share of the base domain


@dataclass(frozen=True, slots=True)
class OctantState:
    """Classification result for one snapshot."""

    step: int
    octant: Octant
    axes: OctantAxes
    signals: AppSignals


#: The last refined mask this thread built, with what it is a function
#: of: the domain, and each refined level's ratio and patch arrays (held,
#: so their ids stay unique; ``Level.add`` replaces a level's arrays).
#: Consecutive regrids classify (t, t-1), then (t+1, t): the mask of
#: snapshot t is built once and read again as the previous mask.  One
#: mask is held per thread, never one per hierarchy.
_held = threading.local()


def _refined_mask(hierarchy: GridHierarchy) -> np.ndarray:
    """``hierarchy.refined_mask()``, read-only, built at most once in a row."""
    levels = hierarchy.levels[1:]
    arrays = tuple(lvl.patch_arrays() for lvl in levels)
    key = (
        hierarchy.domain,
        tuple(lvl.ratio for lvl in levels),
        tuple(map(id, arrays)),
    )
    held = getattr(_held, "mask", None)
    if held is not None and held[0] == key:
        return held[2]
    mask = hierarchy.refined_mask()
    mask.setflags(write=False)
    _held.mask = (key, arrays, mask)
    return mask


def _signals(
    hierarchy: GridHierarchy,
    mask: np.ndarray,
    prev_mask: np.ndarray | None,
) -> AppSignals:
    if mask.any():
        labeled, n_comp = ndimage.label(mask)
        refined_fraction = float(mask.mean())
    else:
        n_comp = 0
        refined_fraction = 0.0
    spread = hierarchy.adaptation_scatter()
    comm_ratio = hierarchy.comm_to_comp_ratio()
    if prev_mask is None:
        activity = 0.0
    else:
        union = np.logical_or(mask, prev_mask).sum()
        if union == 0:
            activity = 0.0
        else:
            activity = float(np.logical_xor(mask, prev_mask).sum() / union)
    return AppSignals(
        num_components=int(n_comp),
        spread=spread,
        activity=activity,
        comm_ratio=comm_ratio,
        refined_fraction=refined_fraction,
    )


def _axes_from_signals(
    sig: AppSignals, thresholds: OctantThresholds
) -> OctantAxes:
    scattered = (
        sig.num_components >= thresholds.min_components_scattered
        or sig.spread > thresholds.min_spread_scattered
    )
    high_dynamics = sig.activity > thresholds.min_activity_high
    comm_dominated = sig.comm_ratio > thresholds.min_comm_ratio
    return OctantAxes(
        scattered=scattered,
        high_dynamics=high_dynamics,
        comm_dominated=comm_dominated,
    )


def classify_hierarchy(
    hierarchy: GridHierarchy,
    previous: GridHierarchy | None = None,
    thresholds: OctantThresholds | None = None,
) -> tuple[Octant, AppSignals]:
    """Classify one hierarchy, using ``previous`` for the dynamics axis.

    Without a previous hierarchy the dynamics axis defaults to *low*
    (activity 0); trace-level classification (:func:`classify_trace`)
    substitutes the forward difference for the first snapshot instead.
    """
    thresholds = thresholds or OctantThresholds()
    # previous first: its mask is the one held from the last regrid
    prev_mask = _refined_mask(previous) if previous is not None else None
    sig = _signals(hierarchy, _refined_mask(hierarchy), prev_mask)
    axes = _axes_from_signals(sig, thresholds)
    return axes.octant(), sig


def classify_trace(
    trace: AdaptationTrace,
    thresholds: OctantThresholds | None = None,
) -> list[OctantState]:
    """Classify every snapshot of a trace.

    The dynamics signal for snapshot *t* is the footprint change from
    *t-1* to *t*; the first snapshot uses the forward change to *t+1*
    (the startup transient is measured, not assumed).
    """
    thresholds = thresholds or OctantThresholds()
    if len(trace) == 0:
        return []
    out: list[OctantState] = []
    for idx, snap in enumerate(trace):
        if idx > 0:
            prev_mask = _refined_mask(trace[idx - 1].hierarchy)
        elif len(trace) > 1:
            # forward difference for the first snapshot
            prev_mask = _refined_mask(trace[1].hierarchy)
        else:
            prev_mask = None
        sig = _signals(snap.hierarchy, _refined_mask(snap.hierarchy), prev_mask)
        axes = _axes_from_signals(sig, thresholds)
        out.append(
            OctantState(step=snap.step, octant=axes.octant(), axes=axes, signals=sig)
        )
    return out
