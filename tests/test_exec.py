"""Tests for the data-parallel execution fabric and the result cache.

The fabric's whole contract is *determinism*: any work fanned out over a
process pool must come back bit-identical to the serial pass, and anything
replayed from the content-addressed cache must be exactly what was stored.
These tests pin that contract at every layer — the shard/merge helpers,
the sweep grid sharding, the conformance report, the Monte-Carlo replica
ensembles, and the telemetry trace merge.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from .hypothesis_settings import QUICK_SETTINGS, STANDARD_SETTINGS

from repro.cost import DataParallelCrossoverModel, sweep
from repro.errors import ConfigurationError
from repro.exec import (
    ParallelMap,
    ResultCache,
    code_fingerprint,
    content_key,
    monte_carlo,
    resolve_jobs,
    shard_ranges,
    spawn_seeds,
)
from repro.machine.spec import SUMMIT

FIXED = {
    "latency": SUMMIT.injection_latency,
    "compute_time": 0.05,
    "allreduce_algorithm": "best",
}


def _square(x):
    return x * x


def _seeded_draw(child_seed):
    return float(np.random.default_rng(child_seed).random())


# -- shard/merge helpers ----------------------------------------------------------


class TestShardRanges:
    def test_example(self):
        assert shard_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_shards_than_items_collapses(self):
        assert shard_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert shard_ranges(0, 3) == [(0, 0)]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            shard_ranges(-1, 2)
        with pytest.raises(ConfigurationError):
            shard_ranges(4, 0)

    @given(n_items=st.integers(0, 500), n_shards=st.integers(1, 32))
    @STANDARD_SETTINGS
    def test_partition_properties(self, n_items, n_shards):
        ranges = shard_ranges(n_items, n_shards)
        # contiguous cover of range(n_items), in order
        assert ranges[0][0] == 0
        assert ranges[-1][1] == max(n_items, 0)
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        # balanced to within one item, larger shards first
        sizes = [hi - lo for lo, hi in ranges]
        if n_items:
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)

    def test_prefix_stable(self):
        # child i depends only on (seed, i), never on the ensemble size
        assert spawn_seeds(3, 8)[:3] == spawn_seeds(3, 3)

    def test_distinct_across_seeds_and_indices(self):
        seeds = spawn_seeds(0, 16)
        assert len(set(seeds)) == 16
        assert spawn_seeds(0, 4) != spawn_seeds(1, 4)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            spawn_seeds(0, -1)


class TestParallelMap:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-2) >= 1

    def test_serial_matches_comprehension(self):
        items = list(range(10))
        assert ParallelMap(1).map(_square, items) == [x * x for x in items]

    def test_pool_matches_serial_in_order(self):
        items = list(range(23))
        assert ParallelMap(4).map(_square, items) == ParallelMap(1).map(
            _square, items
        )

    def test_single_item_stays_in_process(self):
        # len(items) <= 1 short-circuits the pool even with n_jobs > 1
        assert ParallelMap(8).map(_square, [5]) == [25]


# -- sweep sharding ---------------------------------------------------------------


def _grid(n_sizes=20, n_nodes=5, n_bw=3):
    return {
        "message_bytes": np.linspace(1e6, 2e9, n_sizes),
        "n_ranks": np.unique(
            np.geomspace(2, 4608, n_nodes).round().astype(int)
        ),
        "bandwidth": np.linspace(5e9, 50e9, n_bw),
    }


def _assert_sweeps_identical(a, b):
    assert set(a.breakdown) == set(b.breakdown)
    for term in a.breakdown:
        ta, tb = np.asarray(a.term(term)), np.asarray(b.term(term))
        assert ta.dtype == tb.dtype
        assert ta.shape == tb.shape
        assert ta.tobytes() == tb.tobytes(), f"term {term!r} diverged"


class TestParallelSweep:
    def test_bit_identical_to_serial(self):
        model = DataParallelCrossoverModel()
        serial = sweep(model, _grid(), **FIXED)
        for n_jobs in (2, 4):
            _assert_sweeps_identical(
                serial, sweep(model, _grid(), n_jobs=n_jobs, **FIXED)
            )

    def test_all_cores_convention(self):
        model = DataParallelCrossoverModel()
        serial = sweep(model, _grid(6, 3, 2), **FIXED)
        _assert_sweeps_identical(
            serial, sweep(model, _grid(6, 3, 2), n_jobs=0, **FIXED)
        )

    def test_more_jobs_than_axis_points(self):
        model = DataParallelCrossoverModel()
        grid = _grid(3, 2, 2)
        _assert_sweeps_identical(
            sweep(model, grid, **FIXED),
            sweep(model, grid, n_jobs=16, **FIXED),
        )

    @given(
        n_sizes=st.integers(1, 9),
        n_nodes=st.integers(1, 4),
        n_jobs=st.sampled_from([2, 3]),
    )
    @QUICK_SETTINGS
    def test_random_grid_shapes(self, n_sizes, n_nodes, n_jobs):
        model = DataParallelCrossoverModel()
        grid = {
            "message_bytes": np.linspace(1e6, 1e9, n_sizes),
            "n_ranks": np.arange(2, 2 + n_nodes),
        }
        fixed = dict(FIXED, bandwidth=12.5e9)
        _assert_sweeps_identical(
            sweep(model, dict(grid), **fixed),
            sweep(model, dict(grid), n_jobs=n_jobs, **fixed),
        )

    def test_parallel_sweep_with_telemetry_spans(self):
        from repro.telemetry import Telemetry
        from repro.verify.invariants import audit_span_tree

        model = DataParallelCrossoverModel()
        tel = Telemetry()
        serial = sweep(model, _grid(), **FIXED)
        pooled = sweep(model, _grid(), telemetry=tel, n_jobs=2, **FIXED)
        _assert_sweeps_identical(serial, pooled)
        # one shard span per worker slice, parented under the sweep span
        spans = tel.finished_spans()
        shard_spans = [s for s in spans if s.name == "sweep_shard"]
        assert len(shard_spans) == 2
        (root,) = [s for s in spans if s.name == "sweep"]
        assert all(s.parent_id == root.span_id for s in shard_spans)
        assert audit_span_tree(tel).passed


# -- conformance report -----------------------------------------------------------


class TestParallelConformance:
    def test_report_json_byte_identical(self):
        from repro.verify import run_conformance

        sections = ("fig1", "table1")
        serial = run_conformance(seed=0, sections=sections)
        pooled = run_conformance(seed=0, sections=sections, n_jobs=4)
        assert serial.to_json() == pooled.to_json()
        assert serial.passed and pooled.passed


# -- Monte-Carlo replicas ---------------------------------------------------------


class TestReplicaEnsembles:
    def test_monte_carlo_jobs_invariant(self):
        serial = monte_carlo(_seeded_draw, 7, seed=11, n_jobs=1)
        pooled = monte_carlo(_seeded_draw, 7, seed=11, n_jobs=3)
        assert serial == pooled
        assert len(set(serial)) == 7

    def test_restart_ensemble_jobs_invariant(self):
        from repro.resilience.restart import restart_ensemble

        kwargs = dict(
            work_seconds=20_000.0,
            interval=1_000.0,
            write_time=30.0,
            n_nodes=256,
            node_mtbf_seconds=3e6,
            n_replicas=4,
            seed=5,
        )
        serial = restart_ensemble(n_jobs=1, **kwargs)
        pooled = restart_ensemble(n_jobs=2, **kwargs)
        assert serial == pooled
        # independent failure streams: not all replicas identical
        assert len({s.wall_seconds for s in serial}) > 1

    def test_goodput_simulate_ensemble(self):
        from repro.apps.extreme_scale import get_app

        stats = get_app("kurth").resilience_ensemble(
            n_nodes=512, n_replicas=3, seed=0, n_jobs=1
        )
        assert len(stats) == 3
        assert all(s.wall_seconds >= s.work_seconds for s in stats)


# -- telemetry merge --------------------------------------------------------------


class TestTelemetryMerge:
    def test_scenario_replicas_merge_well_formed(self):
        from repro.telemetry import chrome_trace_json
        from repro.telemetry.scenarios import run_scenario_replicas
        from repro.verify.invariants import audit_span_tree

        merged, replicas = run_scenario_replicas(
            "restart", 3, seed=0, n_jobs=1
        )
        assert len(replicas) == 3
        assert len(merged.finished_spans()) == sum(
            len(r.telemetry.finished_spans()) for r in replicas
        )
        assert audit_span_tree(merged).passed
        # the merge itself is deterministic, serial or pooled
        merged2, _ = run_scenario_replicas("restart", 3, seed=0, n_jobs=2)
        assert chrome_trace_json(merged) == chrome_trace_json(merged2)

    def test_replicas_reject_zero(self):
        from repro.telemetry.scenarios import run_scenario_replicas

        with pytest.raises(ConfigurationError):
            run_scenario_replicas("restart", 0)

    def test_telemetry_pickle_roundtrip_keeps_spans(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        span = tel.begin("outer", "test", facility="f", track="t")
        inner = tel.begin("inner", "test", facility="f", track="t")
        tel.end(inner)
        tel.end(span)
        clone = pickle.loads(pickle.dumps(tel))
        assert sorted(s.name for s in clone.finished_spans()) == [
            "inner", "outer",
        ]
        # id allocation continues past the restored spans
        new = clone.begin("later", "test", facility="f", track="t")
        assert new.span_id > max(s.span_id for s in clone.finished_spans())


# -- result cache -----------------------------------------------------------------


class TestContentKey:
    def test_stable_and_sensitive(self):
        base = content_key("k", {"a": 1, "b": [1.5, None]})
        assert base == content_key("k", {"b": [1.5, None], "a": 1})
        assert base != content_key("k2", {"a": 1, "b": [1.5, None]})
        assert base != content_key("k", {"a": 2, "b": [1.5, None]})

    def test_arrays_keyed_by_dtype_shape_bytes(self):
        a = np.arange(6, dtype=np.int64)
        assert content_key("k", a) == content_key("k", a.copy())
        assert content_key("k", a) != content_key("k", a.astype(np.int32))
        assert content_key("k", a) != content_key("k", a.reshape(2, 3))

    def test_type_distinctions(self):
        assert content_key("k", 1) != content_key("k", True)
        assert content_key("k", 1) != content_key("k", 1.0)
        assert content_key("k", "1") != content_key("k", 1)

    def test_unhashable_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            content_key("k", {"fn": lambda: None})


class TestResultCache:
    def test_round_trip_identical_bytes(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        value = {"arr": np.linspace(0, 1, 17), "meta": ("x", 3)}
        first = cache.get_or_compute("kind", {"p": 1}, lambda: value)
        second = cache.get_or_compute(
            "kind", {"p": 1},
            lambda: (_ for _ in ()).throw(AssertionError("recomputed"))
        )
        assert (cache.hits, cache.misses) == (1, 1)
        assert pickle.dumps(first) == pickle.dumps(second)
        assert second["arr"].tobytes() == value["arr"].tobytes()

    def test_fingerprint_bump_invalidates(self, tmp_path, monkeypatch):
        import repro.exec.cache as cache_mod

        cache = ResultCache(root=tmp_path)
        cache.get_or_compute("kind", {"p": 1}, lambda: 1)
        monkeypatch.setattr(
            cache_mod, "_FINGERPRINT", "f" * 64, raising=True
        )
        assert cache.get_or_compute("kind", {"p": 1}, lambda: 2) == 2
        assert (cache.hits, cache.misses) == (0, 2)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.get_or_compute("kind", {"p": 1}, lambda: [1, 2])
        key = content_key("kind", {"p": 1})
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get_or_compute("kind", {"p": 1}, lambda: [3]) == [3]
        assert cache.misses == 2

    def test_disabled_cache_always_recomputes(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        calls = []
        for _ in range(2):
            cache.get_or_compute("kind", {}, lambda: calls.append(1))
        assert len(calls) == 2
        assert (cache.hits, cache.misses) == (0, 0)
        assert not any(tmp_path.rglob("*.pkl"))

    def test_metrics_counters(self, tmp_path):
        from repro.telemetry.metrics import MetricsRegistry

        reg = MetricsRegistry()
        cache = ResultCache(root=tmp_path, metrics=reg)
        cache.get_or_compute("kind", {}, lambda: 0)
        cache.get_or_compute("kind", {}, lambda: 0)
        assert reg.counter("cache.hits").value == 1
        assert reg.counter("cache.misses").value == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.get_or_compute("a", {}, lambda: 1)
        cache.get_or_compute("b", {}, lambda: 2)
        assert cache.clear() == 2
        assert cache.get_or_compute("a", {}, lambda: 3) == 3

    def test_env_var_picks_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert ResultCache().root == tmp_path / "envcache"

    def test_code_fingerprint_is_hex_and_stable(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)


class TestCachedSweep:
    def test_sweep_cache_round_trip(self, tmp_path):
        model = DataParallelCrossoverModel()
        cache = ResultCache(root=tmp_path)
        cold = sweep(model, _grid(8, 3, 2), cache=cache, **FIXED)
        warm = sweep(model, _grid(8, 3, 2), cache=cache, **FIXED)
        assert (cache.hits, cache.misses) == (1, 1)
        _assert_sweeps_identical(cold, warm)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        # n_jobs is an execution detail, so it must not enter the key:
        # a serial miss primes a parallel hit and vice versa.
        model = DataParallelCrossoverModel()
        cache = ResultCache(root=tmp_path)
        cold = sweep(model, _grid(8, 3, 2), cache=cache, **FIXED)
        warm = sweep(model, _grid(8, 3, 2), cache=cache, n_jobs=4, **FIXED)
        assert (cache.hits, cache.misses) == (1, 1)
        _assert_sweeps_identical(cold, warm)

    def test_different_grids_different_entries(self, tmp_path):
        model = DataParallelCrossoverModel()
        cache = ResultCache(root=tmp_path)
        sweep(model, _grid(8, 3, 2), cache=cache, **FIXED)
        sweep(model, _grid(9, 3, 2), cache=cache, **FIXED)
        assert (cache.hits, cache.misses) == (0, 2)
