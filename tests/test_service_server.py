"""In-process tests for the campaign server: leases, heartbeats, requeue,
backpressure shed-load, cache memoization, drain, and the client's typed
error surface."""

import contextlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.errors import LeaseExpired, Saturated, ServiceError
from repro.exec.cache import CACHE_DIR_ENV
from repro.resilience.retry import RetryPolicy
from repro.service import (
    CampaignSpec,
    JobSpec,
    ServiceClient,
    expected_results,
    run_worker,
    serve,
)
from tests.service_chaos import chaos_campaign

FAST = dict(
    lease_timeout_s=0.4,
    heartbeat_interval_s=0.1,
    max_attempts=4,
    backoff_base_s=0.01,
    backoff_max_s=0.05,
)

TEST_POLICY = RetryPolicy(max_attempts=4, backoff_base=0.05,
                          backoff_factor=2.0, backoff_max=0.5,
                          jitter_fraction=0.0, deadline_s=10.0)


def _jobs(n, handler="quadrature", **params):
    return tuple(
        JobSpec(f"j{i}", handler, dict(params) or {"n_samples": 16},
                seed=i)
        for i in range(n)
    )


@contextlib.contextmanager
def running_server(spec, journal_dir=None, cache_dir=None):
    tmp = Path(tempfile.mkdtemp(prefix="rsvc-"))
    sock = tmp / "s"
    jdir = Path(journal_dir) if journal_dir else tmp / "journal"
    old_cache = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(cache_dir or tmp / "cache")
    thread = threading.Thread(
        target=serve, args=(spec, jdir, sock),
        kwargs=dict(sweep_interval_s=0.05), daemon=True,
    )
    thread.start()
    client = ServiceClient(sock, session="test", policy=TEST_POLICY)
    client.wait_ready(timeout_s=20.0)
    try:
        yield client
    finally:
        with contextlib.suppress(Exception):
            client.drain()
        thread.join(timeout=10)
        if old_cache is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = old_cache
        assert not thread.is_alive(), "server failed to drain"


class TestHappyPath:
    def test_full_campaign_round_trip(self):
        spec = CampaignSpec(name="t", jobs=_jobs(4), **FAST)
        with running_server(spec) as client:
            worker = threading.Thread(
                target=run_worker,
                args=(ServiceClient(client.socket_path, session="w0"),),
                kwargs=dict(max_jobs=2), daemon=True,
            )
            worker.start()
            status = client.wait_finished(timeout_s=20.0)
            assert status["counts"]["done"] == 4
            assert status["failed_jobs"] == []
            assert client.results() == expected_results(spec)
            worker.join(timeout=10)

    def test_ingest_is_idempotent(self):
        spec = CampaignSpec(name="t", jobs=_jobs(3), **FAST)
        with running_server(spec) as client:
            response = client.submit_spec(spec)
            assert response == {"ingested": 0, "known": 3, "ok": True}

    def test_status_reports_counts_and_metrics(self):
        spec = CampaignSpec(name="t", jobs=_jobs(2), **FAST)
        with running_server(spec) as client:
            status = client.status()
            assert status["counts"]["pending"] == 2
            assert status["recovered"] is False
            assert status["metrics"]["journal.fsyncs"]["value"] >= 1

    def test_acquire_marks_lease_and_attempt(self):
        spec = CampaignSpec(name="t", jobs=_jobs(2), **FAST)
        with running_server(spec) as client:
            leases = client.acquire(max_jobs=1)
            assert len(leases) == 1
            assert leases[0]["attempt"] == 1
            assert leases[0]["job"]["job_id"] == "j0"
            assert client.status()["counts"]["leased"] == 1


class TestLeases:
    def test_expired_lease_requeues_and_late_complete_rejected(self):
        spec = CampaignSpec(name="t", jobs=_jobs(1), **FAST)
        with running_server(spec) as client:
            (lease,) = client.acquire()
            job_id = lease["job"]["job_id"]
            time.sleep(spec.lease_timeout_s + 0.3)  # no heartbeats: expire
            status = client.status()
            assert status["total_requeues"] == 1
            assert status["counts"]["pending"] == 1
            with pytest.raises(LeaseExpired):
                client.complete(job_id, {"stale": True})

    def test_heartbeat_keeps_lease_alive(self):
        spec = CampaignSpec(name="t", jobs=_jobs(1), **FAST)
        with running_server(spec) as client:
            (lease,) = client.acquire()
            job_id = lease["job"]["job_id"]
            deadline = time.time() + spec.lease_timeout_s + 0.5
            while time.time() < deadline:
                client.heartbeat([job_id])
                time.sleep(0.1)
            assert client.status()["total_requeues"] == 0
            assert client.complete(job_id, {"ok": 1})

    def test_requeued_job_completes_under_new_session(self):
        spec = CampaignSpec(name="t", jobs=_jobs(1), **FAST)
        with running_server(spec) as client:
            client.acquire()
            time.sleep(spec.lease_timeout_s + 0.3)
            other = ServiceClient(client.socket_path, session="other",
                                  policy=TEST_POLICY)
            deadline = time.time() + 5.0
            leases = []
            while not leases and time.time() < deadline:
                leases = other.acquire()
                time.sleep(0.05)
            assert leases and leases[0]["attempt"] == 2
            assert other.complete(leases[0]["job"]["job_id"], {"v": 2})
            status = client.status()
            assert status["counts"]["done"] == 1

    def test_attempts_exhaust_to_failed(self, chaos_handlers):
        spec = CampaignSpec(
            name="t",
            jobs=(JobSpec("fatal", "chaos:flaky",
                          {"fail_attempts": 99}, seed=0),),
            **{**FAST, "max_attempts": 2},
        )
        with running_server(spec) as client:
            worker = threading.Thread(
                target=run_worker,
                args=(ServiceClient(client.socket_path, session="w0"),),
                daemon=True,
            )
            worker.start()
            status = client.wait_finished(timeout_s=20.0)
            assert status["counts"]["failed"] == 1
            assert status["failed_jobs"] == ["fatal"]
            assert status["total_attempts"] == 2
            worker.join(timeout=10)

    def test_flaky_job_retries_to_success(self, chaos_handlers):
        spec = CampaignSpec(
            name="t",
            jobs=(JobSpec("flaky", "chaos:flaky",
                          {"fail_attempts": 2}, seed=0),),
            **FAST,
        )
        with running_server(spec) as client:
            worker = threading.Thread(
                target=run_worker,
                args=(ServiceClient(client.socket_path, session="w0"),),
                daemon=True,
            )
            worker.start()
            status = client.wait_finished(timeout_s=20.0)
            assert status["counts"]["done"] == 1
            assert status["total_attempts"] == 3
            assert client.results() == {
                "flaky": {"succeeded_on_attempt": 3}
            }
            worker.join(timeout=10)


class TestBackpressure:
    def test_ingest_beyond_bound_sheds_load(self):
        spec = CampaignSpec(name="t", max_pending=5, **FAST)
        with running_server(spec) as client:
            client.submit(_jobs(5))
            extra = [
                JobSpec(f"x{i}", "quadrature", {"n_samples": 8}, seed=i)
                for i in range(3)
            ]
            with pytest.raises(Saturated, match="max_pending"):
                client.request(
                    "ingest", jobs=[j.to_dict() for j in extra],
                    retry_transient=False,
                )
            # nothing was buffered: in-flight stays at the bound
            counts = client.status()["counts"]
            assert counts["pending"] + counts["leased"] == 5

    def test_shed_load_clears_as_jobs_complete(self):
        spec = CampaignSpec(name="t", max_pending=2, **FAST)
        with running_server(spec) as client:
            client.submit(_jobs(2))
            worker = threading.Thread(
                target=run_worker,
                args=(ServiceClient(client.socket_path, session="w0"),),
                kwargs=dict(idle_exit_s=0.5), daemon=True,
            )
            worker.start()
            client.wait_finished(timeout_s=20.0)
            # capacity freed: the previously-shed jobs now ingest cleanly
            response = client.submit(
                [JobSpec("x0", "quadrature", {"n_samples": 8})]
            )
            assert response["ingested"] == 1
            worker.join(timeout=10)

    def test_client_backoff_retries_saturated(self):
        spec = CampaignSpec(name="t", max_pending=1, **FAST)
        with running_server(spec) as client:
            client.submit(_jobs(1))

            def complete_soon():
                time.sleep(0.3)
                (lease,) = client.acquire()
                client.complete(lease["job"]["job_id"], {"ok": 1})

            threading.Thread(target=complete_soon, daemon=True).start()
            # immediately saturated; the policy-driven backoff retries
            # until the slot frees, so this succeeds without raising
            patient = ServiceClient(
                client.socket_path,
                policy=RetryPolicy(max_attempts=30, backoff_base=0.05,
                                   backoff_factor=1.0, backoff_max=0.05,
                                   jitter_fraction=0.0, deadline_s=15.0),
            )
            response = patient.submit(
                [JobSpec("x0", "quadrature", {"n_samples": 8})]
            )
            assert response["ingested"] == 1


class TestMemoization:
    def test_completed_results_served_from_cache(self, tmp_path):
        jobs = _jobs(3)
        cache_dir = tmp_path / "shared-cache"
        spec_a = CampaignSpec(name="first", jobs=jobs, **FAST)
        with running_server(spec_a, cache_dir=cache_dir) as client:
            worker = threading.Thread(
                target=run_worker,
                args=(ServiceClient(client.socket_path, session="w0"),),
                daemon=True,
            )
            worker.start()
            client.wait_finished(timeout_s=20.0)
            first = client.results()
            worker.join(timeout=10)
        # same job content, brand-new campaign + journal: no leases needed
        spec_b = CampaignSpec(name="second", jobs=jobs, **FAST)
        with running_server(spec_b, cache_dir=cache_dir) as client:
            status = client.wait_finished(timeout_s=5.0)
            assert status["total_attempts"] == 0
            metrics = status["metrics"]
            assert metrics["service.cache_completions"]["value"] == 3.0
            assert client.results() == first


class TestProtocol:
    def test_unknown_op_is_protocol_error(self):
        spec = CampaignSpec(name="t", jobs=_jobs(1), **FAST)
        with running_server(spec) as client:
            from repro.errors import ProtocolError

            with pytest.raises(ProtocolError, match="unknown op"):
                client.request("teleport", retry_transient=False)

    def test_empty_ingest_rejected(self):
        spec = CampaignSpec(name="t", **FAST)
        with running_server(spec) as client:
            from repro.errors import ProtocolError

            with pytest.raises(ProtocolError):
                client.request("ingest", jobs=[], retry_transient=False)

    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient(
            "/nonexistent/socket/path",
            policy=RetryPolicy(max_attempts=2, backoff_base=0.01,
                               jitter_fraction=0.0),
        )
        with pytest.raises(ServiceError, match="cannot reach server"):
            client.ping()

    def test_results_are_canonical_json(self):
        spec = CampaignSpec(name="t", jobs=_jobs(2), **FAST)
        with running_server(spec) as client:
            worker = threading.Thread(
                target=run_worker,
                args=(ServiceClient(client.socket_path, session="w0"),),
                daemon=True,
            )
            worker.start()
            client.wait_finished(timeout_s=20.0)
            payload = json.dumps(client.results(), sort_keys=True)
            assert payload == json.dumps(expected_results(spec),
                                         sort_keys=True)
            worker.join(timeout=10)


class TestDrain:
    def test_drain_writes_trace_and_removes_socket(self):
        tmp = Path(tempfile.mkdtemp(prefix="rsvc-"))
        spec = CampaignSpec(name="t", jobs=_jobs(1), **FAST)
        jdir = tmp / "journal"
        with running_server(spec, journal_dir=jdir) as client:
            socket_path = Path(client.socket_path)
        assert not socket_path.exists()
        trace = json.loads((jdir / "service.trace.json").read_text())
        assert trace["traceEvents"]

    def test_drain_journal_ends_with_marker(self):
        tmp = Path(tempfile.mkdtemp(prefix="rsvc-"))
        spec = CampaignSpec(name="t", jobs=_jobs(1), **FAST)
        jdir = tmp / "journal"
        with running_server(spec, journal_dir=jdir):
            pass
        from repro.service import read_journal

        records = read_journal(jdir).records
        assert records[-1]["type"] == "drain"

    def test_restart_reads_the_journal_once(self, monkeypatch):
        from repro.service import journal, server

        tmp = Path(tempfile.mkdtemp(prefix="rsvc-"))
        spec = CampaignSpec(name="t", jobs=_jobs(1), **FAST)
        jdir = tmp / "journal"
        with running_server(spec, journal_dir=jdir):
            pass
        reads = []
        for module in (journal, server):
            monkeypatch.setattr(
                module, "read_journal",
                lambda d, read=module.read_journal: reads.append(d) or read(d),
            )
        with running_server(spec, journal_dir=jdir) as client:
            assert client.status()["recovered"] is True
        assert reads == [jdir]


def test_chaos_campaign_spec_is_deterministic():
    assert chaos_campaign(12, seed=3) == chaos_campaign(12, seed=3)
