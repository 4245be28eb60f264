"""The worker: acquire leases, heartbeat, compute, complete, repeat.

A worker is deliberately stateless — all truth lives with the server and
its journal. It acquires up to ``max_jobs`` leases, runs each job's
deterministic handler while a daemon thread heartbeats the lease alive,
and reports ``complete`` (or ``report-failure``). If the worker is
SIGKILL'd at *any* point, the lease simply expires and the server requeues
the job; if the *server* is down, every call backs off through the shared
:class:`~repro.resilience.retry.RetryPolicy` until it returns.

``repro work`` is the one worker entry point: it builds the
:class:`~repro.service.client.ServiceClient` that :func:`run_worker` makes
every wire call through. The loop has no fault hooks; a test that needs a
misbehaving worker passes a client subclass instead.
"""

from __future__ import annotations

import threading
import time

from repro.errors import LeaseExpired, ReproError, ServiceError

from repro.service.client import ServiceClient
from repro.service.handlers import run_job

__all__ = ["run_worker"]

#: Seconds between ``acquire`` polls while there is no work to lease or the
#: server cannot be reached.
POLL_S = 0.05


class _Heartbeat:
    """Daemon thread keeping one lease alive until stopped."""

    def __init__(self, client: ServiceClient, job_id: str, interval_s: float):
        self.client = client
        self.job_id = job_id
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.client.heartbeat([self.job_id])
            except ReproError:
                return  # lease lost or server gone — the job outcome decides
            except OSError:
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()


def run_worker(
    client: ServiceClient,
    max_jobs: int = 1,
    idle_exit_s: float | None = None,
) -> int:
    """Work the campaign until it finishes (or drains); returns completions."""
    n_completed = 0
    idle_since: float | None = None
    while True:
        try:
            response = client.request(
                "acquire", session=client.session, max_jobs=max_jobs
            )
        except (ServiceError, OSError):
            # Server gone for longer than the policy's patience — keep
            # trying; if it never comes back, whoever started us stops us.
            time.sleep(POLL_S)
            continue
        leases = response["leases"]
        if not leases:
            if response.get("finished") or response.get("draining"):
                return n_completed
            if idle_exit_s is not None:
                idle_since = idle_since if idle_since is not None else (
                    time.time()
                )
                if time.time() - idle_since > idle_exit_s:
                    return n_completed
            time.sleep(POLL_S)
            continue
        idle_since = None
        interval = response.get("heartbeat_interval_s", 5.0)
        for lease in leases:
            job = lease["job"]
            job_id = job["job_id"]
            try:
                try:
                    with _Heartbeat(client, job_id, interval):
                        result = run_job(
                            job["handler"], job["params"], job["seed"]
                        )
                except ReproError as exc:
                    client.report_failure(
                        job_id, f"{type(exc).__name__}: {exc}"
                    )
                    continue
                if client.complete(job_id, result):
                    n_completed += 1
            except LeaseExpired:
                # Too slow: the job was requeued and may be running
                # elsewhere. Our (deterministic) result is discarded.
                continue
            except (ServiceError, OSError):
                # Server unreachable past the policy's patience — the lease
                # will expire and requeue; drop it and try to reconnect.
                continue
