"""Microbenchmark guard: the disabled observability path stays cheap.

The zero-cost-when-off contract is what lets every hot loop in the
simulator, partitioners and message center stay permanently
instrumented.  These tests pin the two halves of that contract: with no
window open the helpers return shared null singletons (no per-call
allocation of instruments or spans), and an instrumented hot loop costs
at most a small constant factor over the bare loop.
"""

from __future__ import annotations

import time

from repro import obs

#: generous multiplier so the guard never flakes on a loaded CI host;
#: a removed fast path shows up as 100x+, not 20x
MAX_OVERHEAD_FACTOR = 20.0


def _timeit(fn, n: int = 5) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestNullSingletons:
    def test_disabled_instruments_are_shared(self):
        c1 = obs.counter("a.b")
        c2 = obs.counter("x.y", label="z")
        assert c1 is c2
        assert obs.histogram("h") is obs.gauge("g")

    def test_disabled_spans_are_shared(self):
        s1 = obs.span("a", k=1)
        s2 = obs.span("b")
        assert s1 is s2

    def test_collect_restores_null_singletons(self):
        before = obs.span("a")
        with obs.collect() as window:
            assert obs.current() is window
            assert obs.span("a") is not before
        assert obs.current() is None
        assert obs.span("a") is before
        assert obs.counter("c") is obs.gauge("g")


class TestDisabledOverhead:
    N = 20_000

    def _bare(self) -> float:
        acc = 0.0
        for i in range(self.N):
            acc += i * 1e-9
        return acc

    def _instrumented(self) -> float:
        acc = 0.0
        for i in range(self.N):
            with obs.span("hot.iter"):
                acc += i * 1e-9
            obs.counter("hot.iters").inc()
        return acc

    def test_disabled_instrumentation_overhead_is_bounded(self):
        assert obs.current() is None
        bare = _timeit(self._bare)
        instrumented = _timeit(self._instrumented)
        assert instrumented <= MAX_OVERHEAD_FACTOR * max(bare, 1e-4), (
            f"disabled-path overhead {instrumented / bare:.1f}x exceeds "
            f"{MAX_OVERHEAD_FACTOR}x (bare {bare * 1e3:.2f} ms, "
            f"instrumented {instrumented * 1e3:.2f} ms)"
        )

    def test_disabled_histogram_observe_records_nothing(self):
        h = obs.histogram("hot.seconds")
        for _ in range(1000):
            h.observe(0.5)
        assert h.count == 0
        assert h.summary()["p95"] == 0.0
