"""Synchronous client for the campaign service.

Thin by design: the CLI subcommands (``submit``, ``campaign-status``,
``work``), the worker loop and the tests all speak through this one class,
so the wire protocol has exactly two implementations (server and here) and
one schema (:mod:`repro.service.spec`). A test that needs a misbehaving
worker subclasses it.

Robustness is the client's half of the service contract:

- **Per-request timeouts.** Every request runs under ``timeout_s``; a hung
  server surfaces as :class:`~repro.errors.ServiceError`, never a hang.
- **Typed errors.** Error envelopes re-raise as their original
  :mod:`repro.errors` class — a caller catches
  :class:`~repro.errors.Saturated` or :class:`~repro.errors.LeaseExpired`,
  not a stringly-typed dict.
- **Backoff through the shared RetryPolicy.** Transient failures —
  connection refused (server restarting), timeouts, shed load
  (``Saturated``) — are retried through ``policy.delays()``, the same
  policy the server uses for requeue accounting. When the delays iterator
  is exhausted the last error propagates; non-transient errors propagate
  immediately.
"""

from __future__ import annotations

import json
import socket
import time
import uuid
from pathlib import Path
from typing import Any, Iterable

import repro.errors as _errors
from repro.errors import ProtocolError, ReproError, Saturated, ServiceError
from repro.resilience.retry import RetryPolicy
from repro.segmentlog import canonical_json

from repro.service.pubsub import Frame, read_frame
from repro.service.spec import CampaignSpec, JobSpec

__all__ = ["ServiceClient", "DEFAULT_CLIENT_POLICY"]

#: Client-side backoff for transient failures: quick, bounded, jitter-free
#: (determinism matters more than stampede protection on a unix socket).
DEFAULT_CLIENT_POLICY = RetryPolicy(
    max_attempts=8, backoff_base=0.05, backoff_factor=2.0,
    backoff_max=1.0, jitter_fraction=0.0, deadline_s=30.0,
)

#: Failures worth retrying: the server is restarting, slow, or shedding load.
_TRANSIENT = (
    ConnectionRefusedError, ConnectionResetError, BrokenPipeError,
    FileNotFoundError, socket.timeout, TimeoutError, Saturated,
)


def _raise_error(envelope: dict[str, Any]) -> None:
    name = envelope.get("error", "ServiceError")
    message = envelope.get("message", "service error")
    exc_type = getattr(_errors, name, None)
    if not (isinstance(exc_type, type) and issubclass(exc_type, ReproError)):
        exc_type = ServiceError
    raise exc_type(message)


class ServiceClient:
    """One campaign server endpoint, as typed method calls."""

    def __init__(
        self,
        socket_path: str | Path,
        timeout_s: float = 10.0,
        policy: RetryPolicy = DEFAULT_CLIENT_POLICY,
        session: str | None = None,
    ):
        self.socket_path = str(socket_path)
        self.timeout_s = timeout_s
        self.policy = policy
        self.session = session or f"session-{uuid.uuid4().hex[:12]}"

    # -- wire ----------------------------------------------------------------------

    def _request_once(self, payload: dict[str, Any]) -> dict[str, Any]:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(self.timeout_s)
            sock.connect(self.socket_path)
            sock.sendall(canonical_json(payload).encode("utf-8") + b"\n")
            chunks: list[bytes] = []
            while True:
                chunk = sock.recv(1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        raw = b"".join(chunks)
        if not raw:
            raise ConnectionResetError("server closed the connection")
        try:
            response = json.loads(raw.decode("utf-8"))
            if not isinstance(response, dict):
                raise ValueError
        except (ValueError, UnicodeDecodeError):
            raise ProtocolError("malformed response from server") from None
        if not response.get("ok", False):
            _raise_error(response)
        return response

    def request(
        self, op: str, retry_transient: bool = True, **payload: Any
    ) -> dict[str, Any]:
        """One round-trip; transient failures back off through the policy."""
        body = {"op": op, **payload}
        if not retry_transient:
            return self._request_once(body)
        delays = self.policy.delays()
        while True:
            try:
                return self._request_once(body)
            except _TRANSIENT as exc:
                delay = next(delays, None)
                if delay is None:
                    if isinstance(exc, ReproError):
                        raise
                    raise ServiceError(
                        f"cannot reach server at {self.socket_path}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                time.sleep(delay)

    # -- typed surface -------------------------------------------------------------

    def wait_ready(self, timeout_s: float = 30.0) -> dict[str, Any]:
        """Block until the server answers a ping (it may be restarting)."""
        deadline = time.time() + timeout_s
        while True:
            try:
                return self.request("ping", retry_transient=False)
            except _TRANSIENT as exc:
                if time.time() >= deadline:
                    raise ServiceError(
                        f"server at {self.socket_path} not ready "
                        f"after {timeout_s:.1f}s"
                    ) from exc
                time.sleep(0.05)

    def submit(self, jobs: Iterable[JobSpec]) -> dict[str, Any]:
        return self.request(
            "ingest", jobs=[j.to_dict() for j in jobs]
        )

    def submit_spec(self, spec: CampaignSpec) -> dict[str, Any]:
        return self.submit(spec.jobs)

    def acquire(self, max_jobs: int = 1) -> list[dict[str, Any]]:
        response = self.request(
            "acquire", session=self.session, max_jobs=max_jobs
        )
        return response["leases"]

    def heartbeat(self, job_ids: list[str]) -> float:
        response = self.request(
            "heartbeat", session=self.session, jobs=job_ids,
            retry_transient=False,
        )
        return response["deadline"]

    def complete(self, job_id: str, result: Any) -> bool:
        """Report a result; returns True when this ack won (not a duplicate)."""
        response = self.request(
            "complete", session=self.session, job_id=job_id, result=result
        )
        return not response.get("duplicate", False)

    def report_failure(self, job_id: str, error: str) -> dict[str, Any]:
        return self.request(
            "report-failure", session=self.session, job_id=job_id,
            error=error,
        )

    def status(self) -> dict[str, Any]:
        return self.request("status")

    def results(self) -> dict[str, Any]:
        return self.request("results")["results"]

    def drain(self) -> None:
        self.request("drain")

    # -- live event streaming ------------------------------------------------------

    def events(
        self, topic: str = "journal", since_seq: int = 0,
        max_frames: int = 1000,
    ) -> list[Frame]:
        """One-shot catch-up: backlog frames after ``since_seq``, no tail."""
        response = self.request(
            "events", topic=topic, since_seq=since_seq,
            max_frames=max_frames,
        )
        return [
            Frame(topic=w["topic"], seq=int(w["seq"]), payload=w["payload"])
            for w in response["frames"]
        ]

    def subscribe(
        self, topic: str = "journal", since_seq: int = 0,
        timeout_s: float | None = None,
    ):
        """Yield frames from one live subscription until the stream ends.

        One connection, one generator: the backlog (``seq > since_seq``)
        streams first, then live frames, ending when the server announces
        a clean end with its seq-0 eos control frame (campaign drained).
        A bare EOF without the eos means the connection was severed
        (server killed mid-stream) and raises ``ConnectionResetError`` —
        the caller decides whether to :meth:`follow` across that.
        ``timeout_s`` bounds the silence between frames, not the
        subscription lifetime.
        """
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(
                self.timeout_s if timeout_s is None else timeout_s
            )
            sock.connect(self.socket_path)
            sock.sendall(canonical_json({
                "op": "subscribe", "topic": topic, "since_seq": since_seq,
            }).encode("utf-8") + b"\n")
            with sock.makefile("rb") as fh:
                ack_line = fh.readline()
                if not ack_line:
                    raise ConnectionResetError(
                        "server closed the connection"
                    )
                ack = json.loads(ack_line.decode("utf-8"))
                if not ack.get("ok", False):
                    _raise_error(ack)
                while True:
                    frame = read_frame(fh)
                    if frame is None:
                        raise ConnectionResetError(
                            "event stream severed before end-of-stream"
                        )
                    if frame.is_eos:
                        return
                    yield frame

    def follow(
        self, topic: str = "journal", since_seq: int = 0,
        timeout_s: float | None = None, give_up_s: float = 30.0,
    ):
        """Like :meth:`subscribe`, but survives server death and restart.

        Reconnects (with backoff, up to ``give_up_s`` of continuous
        unreachability) and resubscribes from the last frame seen, so the
        yielded stream is **exactly-once in seq order** for the durable
        ``journal`` topic — duplicates are dropped by seq, gaps are
        repaired by resubscribing from disk-backed backlog. For the
        ring-buffered telemetry topics a gap that has aged out of the ring
        is unrecoverable and is simply skipped (still in order, never
        duplicated). Ends when the server drains cleanly.
        """
        last = since_seq
        down_since: float | None = None
        while True:
            try:
                resubscribe = False
                for frame in self.subscribe(
                    topic, since_seq=last, timeout_s=timeout_s
                ):
                    down_since = None
                    if frame.seq <= last:
                        continue  # duplicate across a reconnect
                    if topic == "journal" and frame.seq != last + 1:
                        # A drop under backpressure: the WAL on disk has
                        # the gap — resubscribe and replay it.
                        resubscribe = True
                        break
                    last = frame.seq
                    yield frame
                if not resubscribe:
                    return  # in-band eos frame: the campaign drained
            except (socket.timeout, TimeoutError, Saturated):
                # Reachable but quiet (or shedding load): the server took
                # the subscription, there just were no frames. Not
                # downtime — resubscribe without touching the give-up
                # timer.
                down_since = None
                time.sleep(0.1)
            except _TRANSIENT:
                now = time.time()
                if down_since is None:
                    down_since = now
                elif now - down_since >= give_up_s:
                    raise ServiceError(
                        f"event stream from {self.socket_path} "
                        f"unreachable for {give_up_s:.1f}s"
                    )
                time.sleep(0.1)

    def wait_finished(
        self, timeout_s: float = 60.0, poll_s: float = 0.1
    ) -> dict[str, Any]:
        """Poll ``status`` until every job is DONE or FAILED."""
        deadline = time.time() + timeout_s
        while True:
            status = self.status()
            if status["finished"]:
                return status
            if time.time() >= deadline:
                raise ServiceError(
                    f"campaign {status['campaign']!r} not finished after "
                    f"{timeout_s:.1f}s: {status['counts']}"
                )
            time.sleep(poll_s)
