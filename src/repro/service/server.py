"""The crash-safe asyncio campaign server.

One process, one campaign, one unix socket. Requests are JSON lines
(``{"op": ..., ...}\\n``); responses are ``{"ok": true, ...}`` or a typed
error envelope clients re-raise (see :mod:`repro.service.client`).

Robustness discipline, in order of importance:

1. **Journal before ack.** Every state transition is appended to the
   write-ahead journal and fsync'd *before* the response is sent. A
   SIGKILL at any instant loses at most transitions nobody was told about;
   :meth:`CampaignServer.start` replays the journal and resumes.
2. **Leases, not assignments.** Work is handed out under a time-bounded
   lease refreshed by heartbeats. The sweeper requeues expired leases with
   attempt accounting through the campaign's shared
   :class:`~repro.resilience.retry.RetryPolicy` — a SIGKILL'd worker
   strands nothing, and a worker that misses its deadline cannot complete
   stale work (:class:`~repro.errors.LeaseExpired`).
3. **Bounded everything.** Ingest beyond ``max_pending`` in-flight jobs is
   shed with :class:`~repro.errors.Saturated` rather than buffered into an
   OOM; request lines are size-capped; one request per connection is
   processed at a time.
4. **Memoize completions.** Results are stored in the shared
   :class:`~repro.exec.cache.ResultCache`; ingesting a job whose content
   key is already cached completes it immediately without a lease.

All journal and state mutation happens synchronously between awaits, so
request handling is atomic with respect to the event loop — the fsync cost
is the price of the durability contract and is counted in
``journal.fsyncs``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from pathlib import Path
from typing import Any

from repro.errors import (
    ProtocolError,
    ReproError,
    Saturated,
    ServiceError,
)
from repro.exec.cache import ResultCache, content_key
from repro.segmentlog import canonical_json
from repro.telemetry import Telemetry

from repro.service.journal import Journal, read_journal
from repro.service.pubsub import (
    Frame,
    HubSink,
    PubSubHub,
    TOPICS,
    encode_frame,
    eos_frame,
    frames_from_journal,
)
from repro.service.spec import CampaignSpec, JobSpec
from repro.service.state import CampaignState, DONE, FAILED, LEASED, PENDING

__all__ = ["CampaignServer", "serve"]

#: Cap on one request line (a bulk ingest of ~10k small jobs fits well under).
MAX_LINE_BYTES = 32 * 1024 * 1024
#: Jobs journaled per ingest record (bounds single-record size).
INGEST_CHUNK = 500
#: Result-cache namespace for completed service jobs.
CACHE_KIND = "service-job"


def _cacheable(spec: JobSpec) -> bool:
    """Chaos handlers are attempt-dependent; never memoize them."""
    return not spec.handler.startswith("chaos:")


class CampaignServer:
    """See the module docstring. Construct, then ``await start()``."""

    def __init__(
        self,
        spec: CampaignSpec,
        journal_dir: str | Path,
        socket_path: str | Path,
        cache: ResultCache | None = None,
        sweep_interval_s: float | None = None,
        fsync: bool = True,
    ):
        self.spec = spec
        self.journal_dir = Path(journal_dir)
        self.socket_path = Path(socket_path)
        self.telemetry = Telemetry(clock=time.monotonic)
        self.cache = cache if cache is not None else ResultCache()
        self.sweep_interval_s = (
            sweep_interval_s if sweep_interval_s is not None
            else max(0.05, spec.heartbeat_interval_s / 2.0)
        )
        self.journal = Journal(
            self.journal_dir, fsync=fsync, metrics=self.telemetry.metrics
        )
        # The live observability plane: every committed journal record and
        # every closed telemetry record fans out to socket subscribers.
        self.hub = PubSubHub(
            metrics=self.telemetry.metrics, history=spec.event_history
        )
        self.telemetry.add_tap(HubSink(self.hub))
        self.state = CampaignState(spec)
        self.recovered = False
        self._server: asyncio.AbstractServer | None = None
        self._sweeper: asyncio.Task | None = None
        self._stopped = asyncio.Event()
        self._draining = False

    # -- record plumbing: journal first, then mutate, then (caller) acks -----------

    def _commit(self, type: str, **payload: Any) -> dict[str, Any]:
        # Apply first: every _apply_* validates before it mutates, so a bad
        # transition raises here and never reaches the journal (a record
        # that fails replay must never be written). Then make it durable —
        # the caller acks only after the fsync returns.
        record = {"type": type, **payload}
        self.state.apply(record)
        journaled = self.journal.append_commit(type, **payload)
        # Publish strictly after the fsync: a subscriber never sees a
        # record that a crash could still un-happen, so the live stream's
        # seq numbering is the journal's and survives SIGKILL exactly-once.
        self.hub.publish("journal", journaled, seq=journaled["seq"])
        return record

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.telemetry.metrics.counter(name).inc(amount)

    def _sample_depth(self) -> None:
        counts = self.state.counts()
        gauge = self.telemetry.metrics.gauge("service.queue_depth")
        gauge.set(float(counts["pending"]))
        self.telemetry.sample(
            "service.queue_depth", float(counts["pending"]),
            facility="service",
        )

    # -- startup / recovery --------------------------------------------------------

    async def start(self) -> None:
        """Replay the journal (if any), ingest the spec, open the socket."""
        with self.telemetry.span("recover", "service", facility="service"):
            replay = self.journal.take_replay()
            if replay.records:
                self.recovered = True
                self.state = CampaignState.replay(replay.records, self.spec)
                self.spec = self.state.spec
                self._count("service.recovered_records",
                            len(replay.records))
                if replay.discarded_tails:
                    self._count("service.discarded_tails",
                                replay.discarded_tails)
            else:
                self._commit("campaign", spec=self.spec.to_dict())
            # Idempotent spec ingest: only jobs the journal does not know.
            new = [j for j in self.spec.jobs if j.job_id not in self.state.jobs]
            if new:
                self._ingest_jobs(new)
        self._sample_depth()
        loop = asyncio.get_running_loop()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(self.socket_path),
            limit=MAX_LINE_BYTES,
        )
        self._sweeper = loop.create_task(self._sweep_loop())
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: loop.create_task(self.drain())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    def _ingest_jobs(self, specs: list[JobSpec]) -> None:
        """Journal ingest records (chunked) and cache-complete known results."""
        if self.state.in_flight + len(specs) > self.spec.max_pending:
            raise Saturated(
                f"ingest of {len(specs)} jobs would exceed max_pending="
                f"{self.spec.max_pending} ({self.state.in_flight} in flight); "
                "back off and retry"
            )
        for start in range(0, len(specs), INGEST_CHUNK):
            chunk = specs[start:start + INGEST_CHUNK]
            self._commit("ingest", jobs=[j.to_dict() for j in chunk])
        self._count("service.ingested", len(specs))
        for spec in specs:
            if not _cacheable(spec):
                continue
            hit, result = self.cache.load(
                content_key(CACHE_KIND, spec.content_payload())
            )
            if hit:
                self._commit("cached", job_id=spec.job_id, result=result)
                self._count("service.cache_completions")
        self._sample_depth()

    # -- the lease sweeper ---------------------------------------------------------

    async def _sweep_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                self.sweep(time.time())
            except ReproError:  # pragma: no cover - sweeper must survive
                pass
            await asyncio.sleep(self.sweep_interval_s)

    def sweep(self, now: float) -> int:
        """Requeue (or fail) every expired lease; returns transitions made."""
        moved = 0
        for job_id in self.state.expired_leases(now):
            job = self.state.jobs[job_id]
            self._retire_lease(job_id, now, reason=(
                f"lease expired (attempt {job.attempts}, "
                f"session {job.session_id!r})"
            ))
            moved += 1
        if moved:
            self._sample_depth()
        return moved

    def _retire_lease(self, job_id: str, now: float, reason: str) -> None:
        """The one requeue-or-fail decision point, shared by sweeper and
        failure reports — the decision is journaled, so replay never
        re-decides."""
        job = self.state.jobs[job_id]
        if self.state.policy.exhausted(job.attempts):
            self._commit("fail", job_id=job_id, reason=reason)
            self._count("service.failed")
        else:
            delay = self.state.policy.delay(job.attempts)
            self._commit(
                "requeue", job_id=job_id, reason=reason,
                not_before=now + delay,
            )
            self._count("service.requeues")
            self.telemetry.instant(
                "requeue", "service", facility="service",
                job_id=job_id, reason=reason,
            )

    # -- request handling ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(_error_bytes(ProtocolError(
                        f"request exceeds {MAX_LINE_BYTES} bytes"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                response, stream = self._dispatch(line)
                writer.write(response)
                await writer.drain()
                if stream is not None:
                    # The connection is now a one-way event stream; it
                    # never goes back to request/response.
                    await self._pump(writer, *stream)
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    def _dispatch(self, line: bytes) -> tuple[bytes, tuple | None]:
        try:
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict) or "op" not in request:
                    raise ValueError
            except (ValueError, UnicodeDecodeError):
                raise ProtocolError("requests must be JSON objects "
                                    "with an 'op' field") from None
            op = request["op"]
            handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
            if handler is None or op.startswith("_"):
                raise ProtocolError(f"unknown op {op!r}")
            with self.telemetry.span(f"op:{op}", "service",
                                     facility="service"):
                payload = handler(request)
            stream = payload.pop("_stream", None)
            return _json_bytes({"ok": True, **payload}), stream
        except ReproError as exc:
            self._count("service.errors")
            return _error_bytes(exc), None

    async def _pump(
        self,
        writer: asyncio.StreamWriter,
        token: int | None,
        topic: str,
        backlog: list[Frame],
        queue: "asyncio.Queue[Frame | None]" | None,
    ) -> None:
        """Write a subscriber's backlog, then live frames until the hub
        closes (``None`` sentinel) or the subscriber hangs up. A clean end
        is announced in-band with the seq-0 :func:`eos_frame`, so clients
        can tell a drained campaign from a severed connection. A ``None``
        queue means backlog-only (subscribing during drain): no live tail
        is coming, so the eos follows the backlog immediately."""
        try:
            for frame in backlog:
                writer.write(encode_frame(frame))
            await writer.drain()
            if queue is not None:
                while True:
                    frame = await queue.get()
                    if frame is None:
                        break
                    writer.write(encode_frame(frame))
                    await writer.drain()
            writer.write(encode_frame(eos_frame(topic)))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if token is not None:
                self.hub.unsubscribe(token)

    # -- ops -----------------------------------------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return {"campaign": self.spec.name, "time": time.time()}

    def _op_ingest(self, request: dict) -> dict:
        specs = [JobSpec.from_dict(j) for j in request.get("jobs", ())]
        if not specs:
            raise ProtocolError("ingest requires a non-empty 'jobs' list")
        new = [j for j in specs if j.job_id not in self.state.jobs]
        self._ingest_jobs(new)
        return {"ingested": len(new), "known": len(specs) - len(new)}

    def _op_acquire(self, request: dict) -> dict:
        session = str(request.get("session", ""))
        if not session:
            raise ProtocolError("acquire requires a 'session' id")
        limit = int(request.get("max_jobs", 1))
        now = time.time()
        job_ids = self.state.leasable(now, max(1, limit))
        leases: list[dict[str, Any]] = []
        if job_ids:
            deadline = now + self.spec.lease_timeout_s
            self._commit("lease", session=session, jobs=job_ids,
                         deadline=deadline)
            self._count("service.leases", len(job_ids))
            for job_id in job_ids:
                job = self.state.jobs[job_id]
                leases.append({
                    "job": job.spec.to_dict(),
                    "attempt": job.attempts,
                    "deadline": deadline,
                })
            self._sample_depth()
        return {
            "leases": leases,
            "heartbeat_interval_s": self.spec.heartbeat_interval_s,
            "draining": self._draining,
            "finished": self.state.finished,
        }

    def _op_heartbeat(self, request: dict) -> dict:
        session = str(request.get("session", ""))
        jobs = list(request.get("jobs", ()))
        if not session or not jobs:
            raise ProtocolError("heartbeat requires 'session' and 'jobs'")
        deadline = time.time() + self.spec.lease_timeout_s
        self._commit("heartbeat", session=session, jobs=jobs,
                     deadline=deadline)
        self._count("service.heartbeats")
        return {"deadline": deadline}

    def _op_complete(self, request: dict) -> dict:
        session = str(request.get("session", ""))
        job_id = str(request.get("job_id", ""))
        if not session or not job_id:
            raise ProtocolError("complete requires 'session' and 'job_id'")
        job = self.state.jobs.get(job_id)
        if job is not None and job.state == DONE:
            # Idempotent ack for a retried complete the first ack of which
            # was lost — the result is already durable; do not re-apply.
            return {"duplicate": True}
        self._commit("complete", session=session, job_id=job_id,
                     result=request.get("result"))
        self._count("service.completes")
        job = self.state.jobs[job_id]
        if _cacheable(job.spec):
            self.cache.store(
                content_key(CACHE_KIND, job.spec.content_payload()),
                job.result,
            )
        self._sample_depth()
        return {"duplicate": False, "finished": self.state.finished}

    def _op_report_failure(self, request: dict) -> dict:
        session = str(request.get("session", ""))
        job_id = str(request.get("job_id", ""))
        if not session or not job_id:
            raise ProtocolError("report-failure requires 'session' "
                                "and 'job_id'")
        job = self.state.jobs.get(job_id)
        if job is None or job.state != LEASED or job.session_id != session:
            # The lease already expired and was requeued; nothing to do.
            return {"requeued": False, "stale": True}
        error = str(request.get("error", "handler failure"))
        self._retire_lease(job_id, time.time(),
                           reason=f"handler failed: {error}")
        self._sample_depth()
        return {"requeued": self.state.jobs[job_id].state == PENDING,
                "stale": False}

    def _op_status(self, request: dict) -> dict:
        counts = self.state.counts()
        attempts = {
            job_id: job.attempts for job_id, job in self.state.jobs.items()
        }
        return {
            "campaign": self.spec.name,
            "counts": counts,
            "n_jobs": len(self.state.jobs),
            "finished": self.state.finished,
            "draining": self._draining,
            "recovered": self.recovered,
            "total_attempts": sum(attempts.values()),
            "total_requeues": sum(
                j.requeues for j in self.state.jobs.values()
            ),
            "failed_jobs": sorted(
                job_id for job_id, job in self.state.jobs.items()
                if job.state == FAILED
            ),
            "journal_seq": self.journal.last_seq,
            "event_seqs": {t: self.hub.last_seq(t) for t in TOPICS},
            "metrics": self.telemetry.metrics.as_dict(),
        }

    def _op_results(self, request: dict) -> dict:
        return {"results": self.state.results()}

    # -- event streaming ------------------------------------------------------------

    def _topic_backlog(self, topic: str, since_seq: int) -> list[Frame]:
        """Frames a new reader catches up on. ``journal`` reads the WAL on
        disk (durable, complete — this is what makes reconnect-with-
        ``since_seq`` exactly-once across SIGKILL); other topics serve the
        bounded in-memory ring, which may have aged frames out."""
        if topic == "journal":
            return frames_from_journal(
                read_journal(self.journal_dir).records, since_seq
            )
        return self.hub.backlog(topic, since_seq)

    def _op_subscribe(self, request: dict) -> dict:
        topic = str(request.get("topic", "journal"))
        if topic not in TOPICS:
            raise ProtocolError(
                f"unknown event topic {topic!r}; choose from {list(TOPICS)}"
            )
        since_seq = int(request.get("since_seq", 0))
        if self._draining:
            # No live tail is coming: serve the remaining backlog (for the
            # journal topic that includes the drain record itself) and end
            # the stream cleanly so a reconnecting follower still catches
            # up instead of being rejected into its give-up timer.
            token: int | None = None
            queue: "asyncio.Queue[Frame | None]" | None = None
            backlog = self._topic_backlog(topic, since_seq)
        else:
            # subscribe() and the backlog read happen synchronously between
            # awaits, so every frame is in exactly one of backlog or queue.
            token, ring_backlog, queue = self.hub.subscribe(topic, since_seq)
            backlog = (
                self._topic_backlog(topic, since_seq)
                if topic == "journal" else ring_backlog
            )
        self._count("service.subscriptions")
        return {
            "topic": topic,
            "since_seq": since_seq,
            "backlog": len(backlog),
            "last_seq": self.hub.last_seq(topic),
            "_stream": (token, topic, backlog, queue),
        }

    def _op_events(self, request: dict) -> dict:
        """One-shot catch-up: backlog frames, no live tail."""
        topic = str(request.get("topic", "journal"))
        if topic not in TOPICS:
            raise ProtocolError(
                f"unknown event topic {topic!r}; choose from {list(TOPICS)}"
            )
        since_seq = int(request.get("since_seq", 0))
        limit = int(request.get("max_frames", 1000))
        backlog = self._topic_backlog(topic, since_seq)[:max(0, limit)]
        return {
            "topic": topic,
            "frames": [f.to_wire() for f in backlog],
            "last_seq": self.hub.last_seq(topic),
        }

    def _op_drain(self, request: dict) -> dict:
        asyncio.get_running_loop().create_task(self.drain())
        return {"draining": True}

    # -- shutdown ------------------------------------------------------------------

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, journal the marker, flush."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._sweeper is not None:
            self._sweeper.cancel()
        self._commit("drain", at=time.time())
        # Close the hub *after* the drain record published: every live
        # subscriber sees the drain frame, then end-of-stream.
        self.hub.close()
        self.journal.close()
        try:
            from repro.telemetry import write_chrome_trace

            write_chrome_trace(
                self.telemetry, str(self.journal_dir / "service.trace.json")
            )
        except ReproError:  # pragma: no cover - trace export is best-effort
            pass
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()


def _json_bytes(payload: dict[str, Any]) -> bytes:
    return canonical_json(payload).encode("utf-8") + b"\n"


def _error_bytes(exc: ReproError) -> bytes:
    return _json_bytes({
        "ok": False, "error": type(exc).__name__, "message": str(exc),
    })


async def _serve_async(
    spec: CampaignSpec,
    journal_dir: str | Path,
    socket_path: str | Path,
    fsync: bool = True,
    sweep_interval_s: float | None = None,
) -> CampaignServer:
    server = CampaignServer(
        spec, journal_dir, socket_path, fsync=fsync,
        sweep_interval_s=sweep_interval_s,
    )
    await server.start()
    await server.wait_stopped()
    return server


def serve(
    spec: CampaignSpec,
    journal_dir: str | Path,
    socket_path: str | Path,
    fsync: bool = True,
    sweep_interval_s: float | None = None,
) -> None:
    """Run the campaign server until drained (blocking entry point).

    Safe to SIGKILL at any moment: restart with the same ``journal_dir``
    and the campaign resumes where the journal left off.
    """
    if isinstance(spec, (str, Path)):
        raise ServiceError(
            "serve() takes a CampaignSpec; use CampaignSpec.from_file"
        )
    asyncio.run(_serve_async(
        spec, journal_dir, socket_path, fsync=fsync,
        sweep_interval_s=sweep_interval_s,
    ))
