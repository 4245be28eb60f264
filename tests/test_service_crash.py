"""Crash-recovery acceptance tests: real subprocesses, real SIGKILLs.

Each test drives a campaign through :func:`run_chaos_campaign` with a
handcrafted fault plan and asserts the recovery contract from ISSUE.md:
zero lost jobs, zero duplicated jobs, and a final result set byte-identical
to an uninterrupted run of the same spec.
"""

import json

import pytest

from repro.service import expected_results
from tests.service_chaos import (
    ChaosPlan,
    WorkerChaos,
    chaos_campaign,
    run_chaos_campaign,
)

# expected_results replays chaos:sleep jobs in-process, so every test
# registers the harness handlers.
pytestmark = [pytest.mark.slow, pytest.mark.usefixtures("chaos_handlers")]


def _canonical(results):
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


def _no_faults(n_workers=2):
    return ChaosPlan(
        seed=0, n_workers=n_workers,
        workers=tuple(WorkerChaos() for _ in range(n_workers)),
    )


def _assert_recovered_exactly(outcome, spec):
    """Zero lost, zero duplicated, byte-identical to the uninterrupted run."""
    counts = outcome.status["counts"]
    assert counts["done"] == len(spec.jobs), outcome.status
    assert counts["failed"] == 0 and outcome.status["failed_jobs"] == []
    assert sorted(outcome.results) == sorted(
        j.job_id for j in spec.jobs
    )
    # the ground truth *is* the uninterrupted run: every handler is a pure
    # function of (params, seed), computed here in-process
    assert outcome.results_json == _canonical(expected_results(spec))


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch):
    # Subprocess servers resolve the cache relative to their own workdir;
    # make sure no ambient override leaks shared results into these runs.
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def test_uninterrupted_run_matches_ground_truth(tmp_path):
    spec = chaos_campaign(8, seed=21, slow_every=4)
    outcome = run_chaos_campaign(spec, _no_faults(), tmp_path / "run",
                                 deadline_s=60.0)
    assert outcome.server_kills == 0 and outcome.worker_kills == 0
    _assert_recovered_exactly(outcome, spec)


def test_sigkill_server_mid_campaign_resumes(tmp_path):
    spec = chaos_campaign(10, seed=5, slow_every=2)
    plan = ChaosPlan(
        seed=0, n_workers=2,
        workers=(WorkerChaos(), WorkerChaos()),
        server_kill_after_done=(3,),
        tear_tail_after_kill=(False,),
    )
    outcome = run_chaos_campaign(spec, plan, tmp_path / "run",
                                 deadline_s=90.0)
    assert outcome.server_kills == 1
    assert outcome.status["recovered"] is True  # final server replayed a WAL
    _assert_recovered_exactly(outcome, spec)


def test_sigkill_leased_worker_requeues_and_completes(tmp_path):
    spec = chaos_campaign(8, seed=13, slow_every=2)
    plan = ChaosPlan(
        seed=0, n_workers=2,
        # worker 0 dies holding a lease after its first completion
        workers=(WorkerChaos(kill_at=(1,)), WorkerChaos()),
    )
    outcome = run_chaos_campaign(spec, plan, tmp_path / "run",
                                 deadline_s=90.0)
    assert outcome.worker_kills == 1
    assert outcome.workers_replaced == 1
    _assert_recovered_exactly(outcome, spec)


def test_torn_journal_tail_tolerated_on_restart(tmp_path):
    spec = chaos_campaign(10, seed=8, slow_every=2)
    plan = ChaosPlan(
        seed=0, n_workers=2,
        workers=(WorkerChaos(), WorkerChaos()),
        server_kill_after_done=(4,),
        tear_tail_after_kill=(True,),
    )
    outcome = run_chaos_campaign(spec, plan, tmp_path / "run",
                                 deadline_s=90.0)
    assert outcome.server_kills == 1
    assert outcome.tails_torn == 1
    discarded = outcome.status["metrics"].get("service.discarded_tails")
    assert discarded is not None and discarded["value"] >= 1.0
    _assert_recovered_exactly(outcome, spec)


def test_dropped_heartbeats_reject_stale_completion(tmp_path):
    spec = chaos_campaign(8, seed=3, slow_every=2,
                          lease_timeout_s=0.5, heartbeat_interval_s=0.1)
    plan = ChaosPlan(
        seed=0, n_workers=2,
        # worker 0 computes its first job without heartbeating: the slow
        # jobs outlive the lease, so its completion must come back
        # LeaseExpired and the job must be finished by someone else
        workers=(WorkerChaos(drop_heartbeats_at=(0,)), WorkerChaos()),
    )
    outcome = run_chaos_campaign(spec, plan, tmp_path / "run",
                                 deadline_s=90.0)
    _assert_recovered_exactly(outcome, spec)
