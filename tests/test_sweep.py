"""Tests for the scenario sweep engine (repro.sweep)."""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.sweep import (
    FunctionScenario,
    ResultCache,
    SweepRunner,
    cache_key,
    canonical_params,
    code_salt,
    derive_seed,
    filter_scenarios,
    get_scenario,
    jsonify,
    register,
    run_sweep,
    unregister,
)
from repro.util.fileio import write_file


class TestScenarioIdentity:
    def test_canonical_params_order_independent(self):
        a = canonical_params({"a": 1, "b": [2, 3], "c": {"x": 1, "y": 2}})
        b = canonical_params({"c": {"y": 2, "x": 1}, "b": [2, 3], "a": 1})
        assert a == b

    def test_derive_seed_stable_and_separated(self):
        s1 = derive_seed("t", {"a": 1, "b": 2})
        s2 = derive_seed("t", {"b": 2, "a": 1})
        assert s1 == s2
        assert derive_seed("t", {"a": 1}) != s1
        assert derive_seed("u", {"a": 1, "b": 2}) != s1
        assert derive_seed("t", {"a": 1, "b": 2}, base_seed=1) != s1

    def test_jsonify_normalizes_numpy(self):
        import numpy as np

        doc = jsonify({"x": np.int64(3), "y": np.array([1.5, 2.5]),
                       "z": np.bool_(True)})
        assert doc == {"x": 3, "y": [1.5, 2.5], "z": True}
        json.dumps(doc)  # plain JSON, no fallback needed


class TestRegistry:
    def test_register_roundtrip(self):
        s = FunctionScenario("t-reg", lambda ctx: {"ok": 1}, {"p": 1},
                             tags={"test"})
        try:
            register(s)
            assert get_scenario("t-reg") is s
            assert s in filter_scenarios("t-reg")
            assert s in filter_scenarios(tags=["test"])
            assert s in filter_scenarios("t-*")
        finally:
            unregister("t-reg")
        with pytest.raises(KeyError):
            get_scenario("t-reg")

    def test_duplicate_names_rejected(self):
        s = FunctionScenario("t-dup", lambda ctx: {})
        try:
            register(s)
            with pytest.raises(ValueError):
                register(FunctionScenario("t-dup", lambda ctx: {}))
            register(FunctionScenario("t-dup", lambda ctx: {}), replace=True)
        finally:
            unregister("t-dup")

    def test_builtin_set_registers_everything(self):
        import repro.sweep.builtin  # noqa: F401 - populates the registry

        names = {s.name for s in filter_scenarios()}
        assert {"table1", "table2", "table3", "table4", "table5",
                "fig1", "fig2", "fig3", "fig4",
                "chaos-s0", "chaos-s1",
                "ablation-sfc-curves", "ablation-granularity"} <= names


class TestCacheKey:
    def test_stable_across_param_ordering(self):
        k1 = cache_key("t", {"a": 1, "b": 2})
        k2 = cache_key("t", {"b": 2, "a": 1})
        assert k1 == k2

    def test_invalidated_on_version_change(self):
        base = cache_key("t", {"a": 1})
        assert cache_key("t", {"a": 1}, version="2") != base

    def test_invalidated_on_salt_change(self):
        base = cache_key("t", {"a": 1})
        assert cache_key("t", {"a": 1}, salt="other") != base

    def test_separated_by_name_and_params(self):
        assert cache_key("t", {"a": 1}) != cache_key("u", {"a": 1})
        assert cache_key("t", {"a": 1}) != cache_key("t", {"a": 2})

    def test_salt_is_computed_once_and_in_no_signature(self):
        import inspect

        import numpy as np

        assert code_salt() is code_salt()
        assert code_salt().endswith(f":numpy-{np.__version__}")
        assert code_salt() not in str(inspect.signature(cache_key))

    def test_editing_any_module_changes_the_key(self, tmp_path):
        """The salt hashes the package source: fresh interpreters on a
        copy of the tree agree with this process until a file changes."""
        import repro

        tree = tmp_path / "src"
        shutil.copytree(Path(repro.__file__).parent, tree / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(tree)}
        probe = ("from repro.sweep.cache import cache_key; "
                 "print(cache_key('t', {'a': 1}))")

        def key():
            out = subprocess.run([sys.executable, "-c", probe], env=env,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()

        assert key() == key() == cache_key("t", {"a": 1})
        with open(tree / "repro" / "gridsys" / "link.py", "a") as fh:
            fh.write("# edited\n")
        assert key() != cache_key("t", {"a": 1})


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("t", {"a": 1})
        assert cache.get(key) is None
        cache.put(key, {"result": [1, 2, 3]})
        assert cache.get(key) == {"result": [1, 2, 3]}
        # no temp files left behind by the atomic write
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("t", {"a": 1})
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None

    def test_write_file_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "doc.json"
        assert write_file(path, b'{"a":1}') == path
        write_file(path, b'{"a":2}')
        assert json.loads(path.read_text()) == {"a": 2}
        assert os.listdir(path.parent) == ["doc.json"]

    def test_bitflip_that_still_parses_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("t", {"a": 1})
        path = cache.put(key, {"result": 1})
        blob = path.read_bytes()
        idx = blob.rindex(b"1")
        blob = blob[:idx] + bytes([blob[idx] ^ 0x02]) + blob[idx + 1:]  # "3"
        assert json.loads(blob.rpartition(b"\n")[2]) == {"result": 3}
        path.write_bytes(blob)
        assert cache.get(key) is None

    def test_torn_and_unframed_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("t", {"a": 1})
        path = cache.put(key, {"result": list(range(100))})
        path.write_bytes(path.read_bytes()[:-10])
        assert cache.get(key) is None
        path.write_text(json.dumps({"result": 1}))  # a bare JSON document
        assert cache.get(key) is None

    def test_record_header_carries_the_salt(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(cache_key("t", {"a": 1}), {"result": 1})
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        assert header["salt"] == code_salt()

    def test_concurrent_puts_of_one_key(self, tmp_path):
        """Threads of one process writing the same key each get their
        own temp file: no writer fails, none publishes a partial file."""
        cache = ResultCache(tmp_path)
        key = cache_key("t", {"a": 1})
        docs = [{"writer": i, "result": list(range(2000))} for i in range(8)]
        barrier = threading.Barrier(len(docs), timeout=10)
        errors = []

        def put(doc):
            barrier.wait()
            try:
                cache.put(key, doc)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=put, args=(d,)) for d in docs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == []
        assert cache.get(key) in docs
        assert not list(tmp_path.glob("*.tmp"))


class TestSweepRunner:
    def _cheap(self, name):
        return FunctionScenario(
            name, lambda ctx: {"seed": ctx.seed, "p": ctx.params}, {"k": 1}
        )

    def test_serial_run_and_cache_hit(self, tmp_path):
        s = self._cheap("t-serial")
        runner = SweepRunner(cache=ResultCache(tmp_path))
        cold = runner.run([s])
        assert cold.ok and cold.cache_misses == 1 and cold.cache_hits == 0
        warm = runner.run([s])
        assert warm.ok and warm.cache_hits == 1 and warm.cache_misses == 0
        assert warm.tasks[0].result == cold.tasks[0].result

    def test_no_cache_always_executes(self, tmp_path):
        s = self._cheap("t-nocache")
        runner = SweepRunner(cache=ResultCache(tmp_path), use_cache=False)
        assert runner.run([s]).cache_misses == 1
        assert runner.run([s]).cache_misses == 1
        assert not list(tmp_path.iterdir())

    def test_task_error_is_isolated(self, tmp_path):
        def boom(ctx):
            raise RuntimeError("boom")

        bad = FunctionScenario("t-bad", boom)
        good = self._cheap("t-good")
        result = SweepRunner(cache=ResultCache(tmp_path)).run([bad, good])
        assert not result.ok
        assert [t.ok for t in result.tasks] == [False, True]
        assert "boom" in result.tasks[0].error
        # failures are never cached
        rerun = SweepRunner(cache=ResultCache(tmp_path)).run([bad, good])
        assert not rerun.tasks[0].cached and rerun.tasks[1].cached

    def test_base_seed_changes_derived_seeds(self, tmp_path):
        s = self._cheap("t-seed")
        r0 = SweepRunner(cache=ResultCache(tmp_path / "a")).run([s])
        r1 = SweepRunner(cache=ResultCache(tmp_path / "b"),
                         base_seed=7).run([s])
        assert r0.tasks[0].seed != r1.tasks[0].seed
        assert r0.tasks[0].result["seed"] == r0.tasks[0].seed

    def test_to_dict_bench_shape(self, tmp_path):
        s = self._cheap("t-shape")
        doc = SweepRunner(cache=ResultCache(tmp_path)).run([s]).to_dict()
        assert doc["bench"] == "sweep"
        assert set(doc["cache"]) == {"dir", "enabled", "hits", "misses"}
        json.dumps(doc)


class TestParallelDeterminism:
    """``--jobs N`` must be bit-identical to ``--jobs 1``."""

    def test_two_job_sweep_matches_serial(self, tmp_path):
        serial = run_sweep("*2", jobs=1, cache_dir=tmp_path / "serial")
        twojob = run_sweep("*2", jobs=2, cache_dir=tmp_path / "twojob")
        names = [t.name for t in serial.tasks]
        assert "table2" in names and "fig2" in names
        assert names == [t.name for t in twojob.tasks]
        for a, b in zip(serial.tasks, twojob.tasks):
            assert a.ok and b.ok
            assert json.dumps(a.result, sort_keys=True) == json.dumps(
                b.result, sort_keys=True
            )

    def test_warm_rerun_hits_without_workers(self, tmp_path):
        cold = run_sweep("*2", jobs=2, cache_dir=tmp_path)
        warm = run_sweep("*2", jobs=2, cache_dir=tmp_path)
        assert cold.cache_misses == len(cold.tasks)
        assert warm.cache_hits == len(warm.tasks)
        for a, b in zip(cold.tasks, warm.tasks):
            assert json.dumps(a.result, sort_keys=True) == json.dumps(
                b.result, sort_keys=True
            )


class TestDeprecationShims:
    def test_scenario_entrypoints_do_not_warn(self):
        import warnings

        from repro.experiments import table2
        from repro.sweep.scenario import ScenarioContext

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = table2.run_scenario(ScenarioContext())
            table2.render_scenario(result)


class TestCurveOrderMemo:
    def test_memo_hit_returns_readonly_cached_array(self):
        from repro.sfc import clear_curve_memo, curve_order

        clear_curve_memo()
        a = curve_order((4, 4, 2), "hilbert")
        b = curve_order((4, 4, 2), "hilbert")
        assert a is b
        assert not a.flags.writeable
        assert curve_order((4, 4, 2), "morton") is not a

    def test_memo_matches_fresh_computation(self):
        import numpy as np

        from repro.sfc import clear_curve_memo, curve_order

        clear_curve_memo()
        first = np.array(curve_order((8, 4, 4)))
        clear_curve_memo()
        again = np.array(curve_order((8, 4, 4)))
        assert (first == again).all()


class TestAtomicTraceCache:
    def test_small_trace_cached_atomically(self, tmp_path):
        from repro.experiments.common import rm3d_small_trace

        t1 = rm3d_small_trace(cache_dir=tmp_path)
        files = list(tmp_path.iterdir())
        assert len(files) == 1 and files[0].suffix == ".gz"
        assert not list(tmp_path.glob("*.tmp"))
        t2 = rm3d_small_trace(cache_dir=tmp_path)
        assert len(t1) == len(t2)

    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_corrupt_trace_is_regenerated(self, tmp_path, damage):
        from repro.amr.trace import AdaptationTrace
        from repro.experiments.common import _cached_trace

        generated = []

        def generate():
            generated.append(1)
            return AdaptationTrace(meta={"n": len(generated)})

        _cached_trace(tmp_path, "t.json.gz", generate)
        path = tmp_path / "t.json.gz"
        blob = path.read_bytes()
        mid = len(blob) // 2
        path.write_bytes(blob[:mid] if damage == "truncate" else
                         blob[:mid] + bytes([blob[mid] ^ 0x10]) + blob[mid + 1:])
        assert _cached_trace(tmp_path, "t.json.gz", generate).meta == {"n": 2}
        assert AdaptationTrace.load(path).meta == {"n": 2}
        assert _cached_trace(tmp_path, "t.json.gz", generate).meta == {"n": 2}
        assert len(generated) == 2
