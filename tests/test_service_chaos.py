"""Chaos-harness determinism: same seed → same fault schedule → same
recovery outcome (ISSUE.md acceptance criterion)."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.service import expected_results
from tests.service_chaos import (
    ChaosClient,
    ChaosPlan,
    WorkerChaos,
    chaos_campaign,
    run_chaos_campaign,
    tear_journal_tail,
)


class TestPlanDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 7, 1234, 2**31])
    def test_same_seed_same_schedule(self, seed):
        a = ChaosPlan.from_seed(seed, n_workers=3, n_jobs=24,
                                server_kills=2)
        b = ChaosPlan.from_seed(seed, n_workers=3, n_jobs=24,
                                server_kills=2)
        assert a == b
        assert a.server_kill_after_done == b.server_kill_after_done
        assert a.workers == b.workers

    def test_different_seeds_differ(self):
        plans = {ChaosPlan.from_seed(s) for s in range(20)}
        assert len(plans) > 1

    def test_kill_thresholds_sorted_and_bounded(self):
        for seed in range(50):
            plan = ChaosPlan.from_seed(seed, n_jobs=24, server_kills=3)
            kills = plan.server_kill_after_done
            assert list(kills) == sorted(kills)
            assert all(1 <= k < 24 for k in kills)
            assert len(plan.tear_tail_after_kill) == len(kills)

    def test_file_round_trip(self, tmp_path):
        plan = ChaosPlan.from_seed(99, n_workers=4, server_kills=2)
        path = plan.to_file(tmp_path / "plan.json")
        assert ChaosPlan.from_file(path) == plan

    def test_worker_index_wraps(self):
        plan = ChaosPlan.from_seed(5, n_workers=2)
        assert plan.worker(0) == plan.worker(2)
        assert plan.worker(1) == plan.worker(3)

    def test_degenerate_plans_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan.from_seed(0, n_workers=0)
        with pytest.raises(ConfigurationError):
            ChaosPlan.from_seed(0, n_jobs=2)


class TestWorkerChaos:
    def test_fires_only_at_planned_counts(self):
        chaos = WorkerChaos(kill_at=(2,), drop_heartbeats_at=(0, 3))
        assert [chaos.kill_before_complete(i) for i in range(4)] == \
            [False, False, True, False]
        assert [chaos.drop_heartbeats(i) for i in range(4)] == \
            [True, False, False, True]


class TestChaosClient:
    """The client-boundary faults, without a server: ``request`` is
    replaced by a recorder that accepts every call."""

    @staticmethod
    def _recording(chaos, monkeypatch):
        client = ChaosClient("unused.sock", chaos, session="w")
        sent = []

        def request(op, retry_transient=True, **payload):
            sent.append(op)
            return {"deadline": 1.0, "duplicate": False}

        monkeypatch.setattr(client, "request", request)
        return client, sent

    def test_drops_heartbeats_only_at_planned_counts(self, monkeypatch):
        client, sent = self._recording(
            WorkerChaos(drop_heartbeats_at=(0, 2)), monkeypatch
        )
        assert client.heartbeat(["j0"]) == 0.0
        assert client.complete("j0", {}) is True
        assert client.heartbeat(["j1"]) == 1.0
        assert client.complete("j1", {}) is True
        client.heartbeat(["j2"])
        assert sent == ["complete", "heartbeat", "complete"]
        assert client.completed == 2

    def test_exits_in_place_of_a_planned_completion(self, monkeypatch):
        client, sent = self._recording(WorkerChaos(kill_at=(1,)), monkeypatch)

        def exit_(code):
            raise SystemExit(code)

        monkeypatch.setattr(os, "_exit", exit_)
        assert client.complete("j0", {}) is True
        with pytest.raises(SystemExit) as exited:
            client.complete("j1", {})
        assert exited.value.code == 137
        assert sent == ["complete"]


class TestHelpers:
    def test_tear_tail_on_empty_journal_is_noop(self, tmp_path):
        assert tear_journal_tail(tmp_path) is None


@pytest.mark.slow
def test_live_follower_survives_server_kill(tmp_path, monkeypatch):
    """The exactly-once streaming claim under real faults: a live
    ``events --follow`` subscriber rides out a server SIGKILL + restart
    and still sees every journal record exactly once, in seq order,
    ending with the drain record.

    Seed 4's plan kills the server once without tearing the journal tail,
    so the frames the follower saw must equal the final WAL byte for
    byte (a torn tail would legitimately rewrite history behind seqs the
    follower already streamed)."""
    from repro.service import read_journal

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    spec = chaos_campaign(10, seed=17, slow_every=3)
    plan = ChaosPlan.from_seed(4, n_workers=2, n_jobs=10, server_kills=1)
    assert not any(plan.tear_tail_after_kill)
    outcome = run_chaos_campaign(spec, plan, tmp_path / "tail",
                                 deadline_s=90.0, tail_events=True)
    assert outcome.server_kills == 1
    assert outcome.status["counts"]["done"] == 10

    frames = outcome.events
    assert frames, "follower saw no frames"
    seqs = [f["seq"] for f in frames]
    assert seqs == list(range(1, len(frames) + 1)), \
        "stream has a gap, duplicate, or disorder across the kill"
    assert frames[-1]["payload"]["type"] == "drain"
    assert all(f["topic"] == "journal" and f["v"] == 1 for f in frames)
    records = read_journal(tmp_path / "tail" / "journal").records
    assert [f["payload"] for f in frames] == records


@pytest.mark.slow
def test_same_seed_same_recovery_outcome(tmp_path, monkeypatch,
                                        chaos_handlers):
    """The full acceptance loop, twice: identical plans, identical faults,
    byte-identical recovered result sets."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    spec = chaos_campaign(10, seed=17, slow_every=3)
    ground_truth = json.dumps(expected_results(spec), sort_keys=True,
                              separators=(",", ":"))
    outcomes = []
    for run in ("a", "b"):
        plan = ChaosPlan.from_seed(11, n_workers=2, n_jobs=10,
                                   server_kills=1)
        outcomes.append(
            run_chaos_campaign(spec, plan, tmp_path / run, deadline_s=90.0)
        )
    first, second = outcomes
    # same fault schedule was injected...
    assert first.server_kills == second.server_kills == 1
    # ...and the recovery outcome is identical, down to the byte
    assert first.results_json == second.results_json == ground_truth
    for outcome in outcomes:
        assert outcome.status["counts"]["done"] == 10
        assert outcome.status["failed_jobs"] == []
