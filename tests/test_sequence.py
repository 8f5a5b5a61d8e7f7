"""Tests for 1-D sequence partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partitioners.sequence import (
    greedy_sequence_partition,
    optimal_sequence_partition,
    segment_loads,
    weighted_sequence_partition,
)


def is_contiguous(owners: np.ndarray) -> bool:
    return (np.diff(owners) >= 0).all()


class TestGreedy:
    def test_uniform_loads(self):
        owners = greedy_sequence_partition(np.ones(12), 4)
        loads = segment_loads(np.ones(12), owners, 4)
        assert loads.tolist() == [3, 3, 3, 3]

    def test_contiguity(self):
        rng = np.random.default_rng(0)
        owners = greedy_sequence_partition(rng.random(100), 7)
        assert is_contiguous(owners)
        assert owners.max() <= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            greedy_sequence_partition(np.array([]), 2)
        with pytest.raises(ValueError):
            greedy_sequence_partition(np.array([-1.0, 1.0]), 2)
        with pytest.raises(ValueError):
            greedy_sequence_partition(np.ones(3), 0)


class TestOptimal:
    def test_beats_or_ties_greedy(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = rng.random(60) * rng.integers(1, 100, 60)
            p = 8
            g = segment_loads(w, greedy_sequence_partition(w, p), p).max()
            o = segment_loads(w, optimal_sequence_partition(w, p), p).max()
            assert o <= g + 1e-9

    def test_known_optimal(self):
        w = np.array([1.0, 1.0, 1.0, 9.0])
        owners = optimal_sequence_partition(w, 2)
        loads = segment_loads(w, owners, 2)
        assert loads.max() == pytest.approx(9.0)

    def test_single_proc(self):
        w = np.array([1.0, 2.0])
        assert (optimal_sequence_partition(w, 1) == 0).all()

    def test_more_procs_than_items(self):
        w = np.array([5.0, 3.0])
        owners = optimal_sequence_partition(w, 4)
        assert is_contiguous(owners)
        loads = segment_loads(w, owners, 4)
        assert loads.max() == pytest.approx(5.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
        st.integers(1, 10),
    )
    def test_optimality_against_bound(self, w, p):
        """Optimal bottleneck is >= max(item, total/p) and every assignment
        is contiguous and complete."""
        w = np.asarray(w)
        owners = optimal_sequence_partition(w, p)
        assert owners.shape == w.shape
        assert is_contiguous(owners)
        bottleneck = segment_loads(w, owners, p).max()
        lower = max(w.max(initial=0.0), w.sum() / p)
        assert bottleneck >= lower - 1e-9
        # And within tolerance of the search's granularity:
        assert bottleneck <= w.sum() + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000), st.integers(2, 8))
    def test_matches_brute_force_small(self, seed, p):
        """Exact agreement with brute-force DP on tiny instances."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(p, 12))
        w = rng.integers(0, 20, n).astype(float)
        owners = optimal_sequence_partition(w, p)
        got = segment_loads(w, owners, p).max()

        # brute force: DP over prefix cuts
        import itertools
        prefix = np.concatenate([[0.0], np.cumsum(w)])
        best = np.inf
        for cuts in itertools.combinations(range(1, n), min(p - 1, n - 1)):
            bounds = [0, *cuts, n]
            bott = max(prefix[b] - prefix[a] for a, b in zip(bounds, bounds[1:]))
            best = min(best, bott)
        if p - 1 >= n:
            best = w.max(initial=0.0)
        assert got == pytest.approx(best, rel=1e-6, abs=1e-6)


class TestWeighted:
    def test_proportional_split(self):
        w = np.ones(100)
        caps = np.array([1.0, 3.0])
        owners = weighted_sequence_partition(w, 2, caps)
        loads = segment_loads(w, owners, 2)
        assert loads[0] == pytest.approx(25.0, abs=1.0)
        assert loads[1] == pytest.approx(75.0, abs=1.0)

    def test_zero_capacity_gets_nothing_substantial(self):
        w = np.ones(50)
        caps = np.array([0.0, 1.0, 1.0])
        owners = weighted_sequence_partition(w, 3, caps)
        loads = segment_loads(w, owners, 3)
        assert loads[0] <= 1.0

    def test_zero_total_load(self):
        owners = weighted_sequence_partition(np.zeros(10), 2, np.ones(2))
        assert is_contiguous(owners)
        assert owners.max() <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_sequence_partition(np.ones(4), 2, np.ones(3))
        with pytest.raises(ValueError):
            weighted_sequence_partition(np.ones(4), 2, np.zeros(2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 500), st.integers(2, 8))
    def test_tracks_capacity_fractions(self, seed, p):
        rng = np.random.default_rng(seed)
        w = rng.random(200)
        caps = rng.random(p) + 0.05
        owners = weighted_sequence_partition(w, p, caps)
        assert is_contiguous(owners)
        loads = segment_loads(w, owners, p)
        targets = caps / caps.sum() * w.sum()
        # each segment within one item weight of its target cumulative cut
        assert np.abs(np.cumsum(loads) - np.cumsum(targets)).max() <= w.max() + 1e-9


class TestScalarFixRegressions:
    """Pinned behaviors of the scalar-loop fixes made when the vectorized
    kernels landed (the frozen oracles in ``tests/reference`` carry them
    too; the differential suite keeps the two aligned)."""

    def test_greedy_reserves_units_for_remaining_procs(self):
        # Load concentrated at the tail: without the reserve clause the
        # greedy fill kept everything on processor 0.
        owners = greedy_sequence_partition(np.array([1.0, 1.0, 10.0]), 3)
        assert owners.tolist() == [0, 1, 2]

    def test_optimal_redistributes_trailing_empties(self):
        # A dominant first unit satisfies the bottleneck immediately; the
        # feasibility scan used to pad the remaining processors empty.
        w = np.array([9.0, 1.0, 1.0])
        owners = optimal_sequence_partition(w, 3)
        counts = np.bincount(owners, minlength=3)
        assert (counts > 0).all()
        assert segment_loads(w, owners, 3).max() == pytest.approx(9.0)

    def test_weighted_advances_before_assigning(self):
        # A zero-capacity processor 0 must not receive the first unit:
        # the old assign-then-advance order handed it one anyway.
        owners = weighted_sequence_partition(
            np.array([1.0, 1.0]), 2, np.array([0.0, 1.0])
        )
        assert owners.tolist() == [1, 1]
