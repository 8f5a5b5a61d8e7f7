"""The incremental regrid path: diffing, map updates, and the reuse cache.

Two layers of guarantees:

1. unit semantics of :func:`repro.amr.diff.diff_hierarchies` (what is
   dirty, what is compatible), and
2. **bit-identity** — the incremental workload-map update, the
   geometry-reusing unit rebuild, and a fully incremental simulator run
   must match their full-recompute counterparts byte for byte.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.diff import diff_hierarchies, patch_signature
from repro.amr.grid import Level, Patch
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import Regridder, RegridPolicy
from repro.amr.trace import AdaptationTrace, Snapshot
from repro.amr.workload import composite_load_map, update_composite_load_map
from repro.config import SimulatorOptions
from repro.execsim import ExecutionSimulator, StaticSelector
from repro.execsim.reuse import REUSE_DIRTY_THRESHOLD, UnitsReuseCache
from repro.gridsys import sp2_blue_horizon
from repro.partitioners import ISPPartitioner
from repro.partitioners.units import rebuild_units, units_from_map

DOMAIN = Box((0, 0, 0), (24, 12, 12))

_spec = importlib.util.spec_from_file_location(
    "ref_diff", Path(__file__).parent / "reference" / "ref_diff.py"
)
ref_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref_diff)


def _hier(fine_boxes, ratio=2, load=1.0, base_load=1.0):
    """Two-level hierarchy with the given fine-level boxes (fine index space)."""
    base = Level(index=0, ratio=1)
    base.add(Patch(box=DOMAIN, level=0, patch_id=0, load_per_cell=base_load))
    levels = [base]
    if fine_boxes:
        lvl = Level(index=1, ratio=ratio)
        for n, b in enumerate(fine_boxes):
            lvl.add(Patch(box=Box(*b), level=1, patch_id=n,
                          load_per_cell=load))
        levels.append(lvl)
    return GridHierarchy(domain=DOMAIN, levels=levels)


class TestDiff:
    def test_identical_hierarchies(self):
        a = _hier([((4, 4, 4), (12, 8, 8))])
        b = _hier([((4, 4, 4), (12, 8, 8))])
        d = diff_hierarchies(a, b)
        assert d.compatible and d.identical
        assert d.dirty_fraction == 0.0
        assert not d.dirty_mask.any()

    def test_moved_patch_marks_both_footprints(self):
        a = _hier([((4, 4, 4), (12, 8, 8))])
        b = _hier([((8, 4, 4), (16, 8, 8))])
        d = diff_hierarchies(a, b)
        assert d.compatible and not d.identical
        # base footprints: old [2:6), new [4:8) along x, [2:4) in y/z
        assert d.dirty_mask[2:8, 2:4, 2:4].all()
        assert not d.dirty_mask[:2].any() and not d.dirty_mask[8:].any()
        assert 0.0 < d.dirty_fraction < 1.0

    def test_load_change_dirties_patch(self):
        a = _hier([((4, 4, 4), (12, 8, 8))], load=1.0)
        b = _hier([((4, 4, 4), (12, 8, 8))], load=2.0)
        d = diff_hierarchies(a, b)
        assert d.compatible and not d.identical
        assert d.dirty_mask[2:6, 2:4, 2:4].all()

    def test_level_count_change_dirties_new_level(self):
        a = _hier([])
        b = _hier([((4, 4, 4), (12, 8, 8))])
        d = diff_hierarchies(a, b)
        assert d.compatible and not d.identical
        assert 1 in d.dirty_levels

    def test_domain_change_incompatible(self):
        a = _hier([])
        other = GridHierarchy(domain=Box((0, 0, 0), (16, 12, 12)))
        d = diff_hierarchies(a, other)
        assert not d.compatible
        assert d.dirty_fraction == 1.0

    def test_ratio_change_incompatible(self):
        a = _hier([((4, 4, 4), (12, 8, 8))], ratio=2)
        b = _hier([((8, 8, 8), (24, 16, 16))], ratio=4)
        d = diff_hierarchies(a, b)
        assert not d.compatible

    def test_reordered_level_fully_dirty(self):
        boxes = [((0, 0, 0), (8, 4, 4)), ((16, 8, 8), (24, 12, 12))]
        a = _hier(boxes)
        b = _hier(list(reversed(boxes)))
        d = diff_hierarchies(a, b)
        assert d.compatible and not d.identical
        assert 1 in d.dirty_levels

    def test_dirty_mask_matches_per_patch_footprints(self, small_rm3d_trace):
        hs = [snap.hierarchy for snap in small_rm3d_trace]
        a, b, c = ((3, 3, 3), (9, 7, 5)), ((20, 2, 2), (26, 6, 6)), ((8, 8, 8), (16, 12, 12))
        edge, outside = ((44, 20, 20), (50, 26, 26)), ((60, 30, 30), (62, 32, 32))
        pairs = list(zip(hs, hs[1:])) + [
            (_hier([a, b, edge, outside]), _hier([a, edge, c])),  # partial
            (_hier([a, b, c]), _hier([c, b, a])),                 # reordered
            (_hier([]), _hier([a, edge, outside])),               # new level
            (_hier([b, edge]), _hier([])),                        # gone level
        ]
        for old, new in pairs:
            d = diff_hierarchies(old, new)
            mask, unchanged, changed, levels = ref_diff.dirty_region(old, new)
            assert d.dirty_mask.dtype == mask.dtype
            assert d.dirty_mask.tobytes() == mask.tobytes()
            assert (d.unchanged_patches, d.changed_patches, d.dirty_levels) == (
                unchanged, changed, levels
            )

    def test_signature_ignores_patch_id(self):
        p1 = Patch(box=Box((0, 0, 0), (4, 4, 4)), level=1, patch_id=3)
        p2 = Patch(box=Box((0, 0, 0), (4, 4, 4)), level=1, patch_id=9)
        assert patch_signature(p1) == patch_signature(p2)


class TestIncrementalMapUpdate:
    def _assert_incremental_equals_full(self, old_h, new_h):
        d = diff_hierarchies(old_h, new_h)
        assert d.compatible
        updated = update_composite_load_map(
            composite_load_map(old_h), new_h, d.dirty_mask
        )
        full = composite_load_map(new_h)
        np.testing.assert_array_equal(updated.values, full.values)

    def test_patch_beyond_the_domain(self):
        # its footprint clips to an empty slice past the upper corner
        self._assert_incremental_equals_full(
            _hier([((4, 4, 4), (12, 8, 8))]),
            _hier([((4, 4, 4), (12, 8, 8)), ((60, 4, 4), (64, 8, 8))]),
        )

    def test_moved_patch(self):
        self._assert_incremental_equals_full(
            _hier([((4, 4, 4), (12, 8, 8))]),
            _hier([((8, 4, 4), (16, 8, 8))]),
        )

    def test_added_and_removed_patches(self):
        self._assert_incremental_equals_full(
            _hier([((0, 0, 0), (8, 4, 4)), ((16, 8, 8), (24, 12, 12))]),
            _hier([((0, 0, 0), (8, 4, 4)), ((32, 16, 16), (40, 20, 20))]),
        )

    def test_unaligned_patch_edges(self):
        # odd extents: partial base-cell coverage on the trailing edges
        self._assert_incremental_equals_full(
            _hier([((3, 3, 3), (11, 9, 7))]),
            _hier([((5, 3, 3), (13, 9, 7))]),
        )

    def test_randomized_regrid_sequences(self):
        rng = np.random.default_rng(7)
        domain = Box((0, 0, 0), (20, 20, 10))
        rg = Regridder(domain, RegridPolicy(thresholds=(0.4, 0.8)))
        prev = None
        checked = 0
        for k in range(12):
            # a refinement front drifting across the domain, with noise
            err = np.zeros(domain.shape)
            x0 = 2 + k
            err[x0:x0 + 5, 6:14, 2:8] = 0.6
            err[x0 + 1:x0 + 3, 8:12, 3:6] = 0.95
            err += 0.1 * rng.random(domain.shape)
            h = rg.regrid(err)
            if prev is not None:
                d = diff_hierarchies(prev, h)
                if d.compatible and not d.identical:
                    updated = update_composite_load_map(
                        composite_load_map(prev), h, d.dirty_mask
                    )
                    np.testing.assert_array_equal(
                        updated.values, composite_load_map(h).values
                    )
                    checked += 1
            prev = h
        assert checked > 0

    def test_domain_mismatch_rejected(self):
        h = _hier([])
        other = GridHierarchy(domain=Box((0, 0, 0), (16, 12, 12)))
        with pytest.raises(ValueError):
            update_composite_load_map(
                composite_load_map(other), h, np.zeros(h.domain.shape, bool)
            )


class TestRebuildUnits:
    def test_matches_full_build(self):
        h = _hier([((4, 4, 4), (12, 8, 8))])
        wmap1 = composite_load_map(h)
        cached = units_from_map(wmap1, granularity=4, curve="hilbert")
        h2 = _hier([((8, 4, 4), (16, 8, 8))], load=3.0)
        wmap2 = composite_load_map(h2)
        rebuilt = rebuild_units(cached, wmap2)
        full = units_from_map(wmap2, granularity=4, curve="hilbert")
        np.testing.assert_array_equal(rebuilt.loads, full.loads)
        np.testing.assert_array_equal(rebuilt.ijk, full.ijk)
        np.testing.assert_array_equal(rebuilt.lattice_index, full.lattice_index)
        np.testing.assert_array_equal(
            rebuilt.curve_position, full.curve_position
        )

    def test_domain_change_rejected(self):
        h = _hier([])
        cached = units_from_map(composite_load_map(h), granularity=4,
                                curve="hilbert")
        other = GridHierarchy(domain=Box((0, 0, 0), (16, 12, 12)))
        with pytest.raises(ValueError):
            rebuild_units(cached, composite_load_map(other))


def _trace(hierarchies, steps_per=4):
    t = AdaptationTrace(meta={"num_coarse_steps": steps_per * len(hierarchies)})
    for k, h in enumerate(hierarchies):
        t.append(Snapshot(step=k * steps_per, hierarchy=h))
    return t


class TestReuseCache:
    def test_localized_transition_hits_incrementally(self):
        cache = UnitsReuseCache()
        a = _hier([((4, 4, 4), (12, 8, 8))])
        b = _hier([((8, 4, 4), (16, 8, 8))])
        ua = cache.units_for(a, granularity=4)
        ub = cache.units_for(b, granularity=4)
        assert cache.misses == 1 and cache.hits == 1
        np.testing.assert_array_equal(
            ub.loads, units_from_map(
                composite_load_map(b), granularity=4, curve="hilbert"
            ).loads,
        )
        # geometry shared with the first build, not recomputed
        assert ub.lattice_index is ua.lattice_index

    def test_all_patches_moved_falls_back_to_full_recompute(self):
        """Above the dirty threshold the masked update is abandoned."""
        cache = UnitsReuseCache()
        a = _hier([((0, 0, 0), (48, 24, 24))], load=1.0)
        b = _hier([((0, 0, 0), (48, 24, 24))], load=2.0)  # every cell dirty
        assert diff_hierarchies(a, b).dirty_fraction > REUSE_DIRTY_THRESHOLD
        cache.units_for(a, granularity=4)
        ub = cache.units_for(b, granularity=4)
        assert cache.hits == 1  # geometry-only reuse still counts
        np.testing.assert_array_equal(
            ub.loads, units_from_map(
                composite_load_map(b), granularity=4, curve="hilbert"
            ).loads,
        )

    def test_incompatible_transition_is_a_miss(self):
        cache = UnitsReuseCache()
        cache.units_for(_hier([((4, 4, 4), (12, 8, 8))], ratio=2),
                        granularity=4)
        cache.units_for(_hier([((8, 8, 8), (24, 16, 16))], ratio=4),
                        granularity=4)
        assert cache.misses == 2 and cache.hits == 0

    def test_hit_rate(self):
        cache = UnitsReuseCache()
        h = _hier([((4, 4, 4), (12, 8, 8))])
        cache.units_for(h, granularity=4)
        cache.units_for(h, granularity=4)
        cache.units_for(h, granularity=4)
        assert cache.hit_rate == pytest.approx(2.0 / 3.0)


class TestSimulatorEquivalence:
    """Incremental runs must be byte-identical to full-recompute runs."""

    def _assert_runs_identical(self, trace, cluster):
        res_inc = ExecutionSimulator(cluster, options=SimulatorOptions(incremental=True)).run(
            trace, StaticSelector(ISPPartitioner())
        )
        res_full = ExecutionSimulator(cluster, options=SimulatorOptions(incremental=False)).run(
            trace, StaticSelector(ISPPartitioner())
        )
        assert len(res_inc.records) == len(res_full.records)
        for a, b in zip(res_inc.records, res_full.records):
            assert a == b
        assert res_inc.useful_work == res_full.useful_work
        assert res_inc.ghost_work == res_full.ghost_work
        np.testing.assert_array_equal(res_inc.proc_work, res_full.proc_work)

    def test_localized_adaptation(self):
        hierarchies = [
            _hier([((4 + 2 * k, 4, 4), (12 + 2 * k, 8, 8))])
            for k in range(5)
        ]
        self._assert_runs_identical(_trace(hierarchies), sp2_blue_horizon(8))

    def test_every_patch_moves_every_snapshot(self):
        """Worst case: nothing reusable but geometry; still identical."""
        hierarchies = [
            _hier([((4, 4, 4), (12, 8, 8))], load=1.0 + 0.37 * k)
            for k in range(4)
        ]
        self._assert_runs_identical(_trace(hierarchies), sp2_blue_horizon(4))

    def test_rm3d_trace(self, small_rm3d_trace):
        self._assert_runs_identical(small_rm3d_trace, sp2_blue_horizon(8))
