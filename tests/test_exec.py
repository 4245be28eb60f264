"""Tests for the replica fan-out and the result cache.

Their whole contract is *determinism*: replicas fanned out over a process
pool must come back bit-identical to the serial loop, and anything
replayed from the content-addressed cache must be exactly what was stored
(or, if the entry is damaged, a miss). These tests pin that contract at
every layer — the seed helpers, the Monte-Carlo replica ensembles, the
telemetry trace merge and the result cache.
"""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    ResultCache,
    code_fingerprint,
    content_key,
    monte_carlo,
    resolve_jobs,
    spawn_seeds,
)


def _seeded_draw(child_seed):
    return float(np.random.default_rng(child_seed).random())


# -- fan-out helpers --------------------------------------------------------------


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
    """Worker-count resolution for the replica pool."""

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-2) >= 1


# -- Monte-Carlo replicas ---------------------------------------------------------


class TestReplicaEnsembles:
    def test_monte_carlo_jobs_invariant(self):
        serial = monte_carlo(_seeded_draw, 7, seed=11, n_jobs=1)
        pooled = monte_carlo(_seeded_draw, 7, seed=11, n_jobs=3)
        assert serial == pooled
        assert len(set(serial)) == 7

    def test_single_replica_stays_in_process(self):
        # a lambda cannot cross a process boundary, so this passes only if
        # one replica short-circuits the pool even with n_jobs > 1
        [value] = monte_carlo(lambda child_seed: child_seed, 1, n_jobs=8)
        assert value == spawn_seeds(0, 1)[0]

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

        merged, replicas = run_scenario_replicas("restart", 3, seed=0)
        assert len(replicas) == 3
        assert len(merged.finished_spans()) == sum(
            len(r.telemetry.finished_spans()) for r in replicas
        )
        assert audit_span_tree(merged).passed
        # the merge itself is deterministic
        merged2, _ = run_scenario_replicas("restart", 3, seed=0)
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
        assert sorted(s["name"] for s in clone.finished_spans()) == [
            "inner", "outer",
        ]
        # id allocation continues past the restored spans
        new = clone.begin("later", "test", facility="f", track="t")
        assert new.span_id > max(s["id"] for s in clone.finished_spans())


# -- result cache -----------------------------------------------------------------


class TestContentKey:
    def test_stable_and_sensitive(self):
        base = content_key("k", {"a": 1, "b": [1.5, None]})
        assert base == content_key("k", {"b": [1.5, None], "a": 1})
        assert base != content_key("k2", {"a": 1, "b": [1.5, None]})
        assert base != content_key("k", {"a": 2, "b": [1.5, None]})

    def test_type_distinctions(self):
        assert content_key("k", 1) != content_key("k", True)
        assert content_key("k", 1) != content_key("k", 1.0)
        assert content_key("k", "1") != content_key("k", 1)

    def test_unhashable_payload_rejected(self):
        # keys cover JSON job payloads only
        for payload in ({"fn": lambda: None}, np.arange(6), b"raw"):
            with pytest.raises(ConfigurationError):
                content_key("k", payload)


class TestResultCache:
    def test_round_trip_identical_bytes(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = content_key("kind", {"p": 1})
        value = {"x": [0.1, 1e-300, -0.0, None, True], "meta": {"n": 3}}
        raw = cache.store(key, value).read_bytes()
        hit, loaded = cache.load(key)
        assert hit and loaded == value
        assert cache.store(key, loaded).read_bytes() == raw

    def test_fingerprint_bump_invalidates(self, tmp_path, monkeypatch):
        import repro.exec.cache as cache_mod

        cache = ResultCache(root=tmp_path)
        cache.store(content_key("kind", {"p": 1}), 1)
        monkeypatch.setattr(
            cache_mod, "_FINGERPRINT", "f" * 64, raising=True
        )
        assert cache.load(content_key("kind", {"p": 1})) == (False, None)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        """Every truncation and every single-bit flip of a stored entry
        loads as a miss: never as another value, never as an exception."""
        cache = ResultCache(root=tmp_path)
        key = content_key("kind", {"p": 1})
        path = cache.store(key, {"estimate": 0.7853, "n_samples": 512})
        raw = path.read_bytes()
        damaged = [raw[:n] for n in range(len(raw))] + [
            raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1:]
            for i in range(len(raw)) for bit in range(8)
        ]
        for entry in damaged:
            path.write_bytes(entry)
            assert cache.load(key) == (False, None), entry

    def test_env_var_picks_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert ResultCache().root == tmp_path / "envcache"

    def test_code_fingerprint_is_hex_and_stable(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)
