"""Tests for the live event streaming plane: wire frames, the pubsub hub's
seq/ring/drop behavior, and the subscribe/events ops end to end against a
running campaign server (including the in-band end-of-stream at drain)."""

import contextlib
import io
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.exec.cache import CACHE_DIR_ENV
from repro.resilience.retry import RetryPolicy
from repro.service import (
    CampaignSpec,
    FRAME_VERSION,
    Frame,
    JobSpec,
    PubSubHub,
    ServiceClient,
    TOPICS,
    decode_frame,
    encode_frame,
    eos_frame,
    read_frame,
    read_journal,
    serve,
)
from repro.service.pubsub import SUBSCRIBER_QUEUE_FRAMES, frames_from_journal

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
def running_server(spec, journal_dir=None):
    tmp = Path(tempfile.mkdtemp(prefix="rpub-"))
    sock = tmp / "s"
    jdir = Path(journal_dir) if journal_dir else tmp / "journal"
    old_cache = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp / "cache")
    thread = threading.Thread(
        target=serve, args=(spec, jdir, sock),
        kwargs=dict(sweep_interval_s=0.05), daemon=True,
    )
    thread.start()
    client = ServiceClient(sock, session="test", policy=TEST_POLICY)
    client.wait_ready(timeout_s=20.0)
    try:
        yield client, jdir
    finally:
        with contextlib.suppress(Exception):
            client.drain()
        thread.join(timeout=10)
        if old_cache is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = old_cache
        assert not thread.is_alive(), "server failed to drain"


def _run_jobs(client, n):
    from repro.service import run_worker

    client.submit(_jobs(n))
    run_worker(ServiceClient(client.socket_path), max_jobs=n)
    return client.wait_finished(timeout_s=30.0)


class TestWireFormat:
    def test_encode_decode_round_trip(self):
        frame = Frame(topic="journal", seq=7, payload={"type": "ingest"})
        wire = encode_frame(frame)
        header, body, trailer = wire.split(b"\n")
        assert int(header) == len(body)
        assert trailer == b""
        assert decode_frame(body) == frame

    def test_read_frame_stream(self):
        frames = [Frame(topic="events", seq=i, payload={"i": i})
                  for i in (1, 2, 3)]
        fh = io.BytesIO(b"".join(encode_frame(f) for f in frames))
        assert [read_frame(fh) for _ in range(3)] == frames
        assert read_frame(fh) is None  # clean EOF

    def test_read_frame_torn_mid_frame_is_none(self):
        wire = encode_frame(Frame(topic="events", seq=1, payload={}))
        fh = io.BytesIO(wire[:-4])
        assert read_frame(fh) is None

    def test_read_frame_bad_header_raises(self):
        with pytest.raises(ProtocolError, match="not a length"):
            read_frame(io.BytesIO(b"xyz\n"))

    def test_version_skew_fails_loudly(self):
        body = json.dumps({
            "payload": {}, "seq": 1, "topic": "events",
            "v": FRAME_VERSION + 1,
        }).encode()
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(body)

    def test_eos_frame_is_reserved_seq_zero(self):
        frame = eos_frame("journal")
        assert frame.is_eos
        assert frame.seq == 0
        assert not Frame(topic="journal", seq=1, payload={}).is_eos
        # survives the wire
        wire = encode_frame(frame)
        assert read_frame(io.BytesIO(wire)).is_eos


class TestPubSubHub:
    def test_seqs_are_per_topic_monotonic(self):
        hub = PubSubHub()
        assert hub.publish("events", {"a": 1}).seq == 1
        assert hub.publish("events", {"a": 2}).seq == 2
        assert hub.publish("counters", {"b": 1}).seq == 1
        assert hub.last_seq("events") == 2

    def test_caller_seq_must_advance(self):
        hub = PubSubHub()
        hub.publish("journal", {"type": "campaign"}, seq=5)
        with pytest.raises(ServiceError, match="in order"):
            hub.publish("journal", {"type": "ingest"}, seq=5)

    def test_unknown_topic_rejected(self):
        hub = PubSubHub()
        with pytest.raises(ProtocolError, match="unknown event topic"):
            hub.publish("gossip", {})
        with pytest.raises(ProtocolError, match="unknown event topic"):
            hub.subscribe("gossip")

    def test_ring_backlog_filters_since_seq(self):
        hub = PubSubHub(history=4)
        for i in range(8):
            hub.publish("events", {"i": i})
        backlog = hub.backlog("events", since_seq=6)
        assert [f.seq for f in backlog] == [7, 8]
        # ring bound: the oldest frames aged out
        assert [f.seq for f in hub.backlog("events")] == [5, 6, 7, 8]

    def test_subscriber_receives_live_frames(self):
        hub = PubSubHub()
        hub.publish("events", {"i": 0})
        token, backlog, queue = hub.subscribe("events", since_seq=0)
        assert [f.seq for f in backlog] == [1]
        hub.publish("events", {"i": 1})
        assert queue.get_nowait().seq == 2
        hub.unsubscribe(token)
        hub.publish("events", {"i": 2})
        assert queue.empty()

    def test_slow_subscriber_drops_are_counted(self):
        from repro.telemetry.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        hub = PubSubHub(metrics=metrics)
        _, _, queue = hub.subscribe("events")
        for i in range(SUBSCRIBER_QUEUE_FRAMES + 5):
            hub.publish("events", {"i": i})
        assert queue.qsize() == SUBSCRIBER_QUEUE_FRAMES
        assert metrics.counter("service.subscriber_drops").value == 5

    def test_close_always_lands_the_sentinel(self):
        hub = PubSubHub()
        _, _, queue = hub.subscribe("events")
        for i in range(SUBSCRIBER_QUEUE_FRAMES):
            hub.publish("events", {"i": i})
        hub.close()
        drained = []
        while not queue.empty():
            drained.append(queue.get_nowait())
        assert drained[-1] is None
        with pytest.raises(ServiceError, match="closed"):
            hub.publish("events", {})

    def test_frames_from_journal(self):
        records = [{"seq": i, "type": "ingest"} for i in (1, 2, 3)]
        frames = frames_from_journal(records, since_seq=1)
        assert [f.seq for f in frames] == [2, 3]
        assert all(f.topic == "journal" for f in frames)


class TestServerStreaming:
    def test_one_shot_events_catch_up_matches_wal(self):
        spec = CampaignSpec(name="t", jobs=(), **FAST)
        with running_server(spec) as (client, jdir):
            _run_jobs(client, 3)
            frames = client.events("journal")
            records = read_journal(jdir).records
            assert [f.seq for f in frames] == [r["seq"] for r in records]
            assert [f.payload for f in frames] == records
            assert frames[0].payload["type"] == "campaign"

    def test_status_reports_stream_positions(self):
        spec = CampaignSpec(name="t", jobs=(), **FAST)
        with running_server(spec) as (client, _):
            _run_jobs(client, 2)
            status = client.status()
            assert status["journal_seq"] >= 1
            assert set(status["event_seqs"]) == set(TOPICS)
            assert status["event_seqs"]["journal"] == status["journal_seq"]

    def test_telemetry_topics_stream_op_spans(self):
        spec = CampaignSpec(name="t", jobs=(), **FAST)
        with running_server(spec) as (client, _):
            _run_jobs(client, 2)
            spans = client.events("spans", max_frames=10_000)
            assert spans, "server op spans should stream on the spans topic"
            assert all(f.payload["type"] == "span" for f in spans)
            assert any(f.payload["name"].startswith("op:")
                       for f in spans)

    def test_live_subscriber_sees_drain_then_eos(self):
        spec = CampaignSpec(name="t", jobs=(), **FAST)
        seen: list[Frame] = []
        with running_server(spec) as (client, jdir):
            tail = ServiceClient(client.socket_path, session="tail",
                                 policy=TEST_POLICY)

            def _consume():
                for frame in tail.subscribe("journal", timeout_s=30.0):
                    seen.append(frame)

            thread = threading.Thread(target=_consume, daemon=True)
            thread.start()
            _run_jobs(client, 2)
            client.drain()
            thread.join(timeout=15)
            assert not thread.is_alive(), "subscriber missed the eos"
        seqs = [f.seq for f in seen]
        assert seqs == list(range(1, len(seen) + 1)), "gap or disorder"
        assert seen[-1].payload["type"] == "drain"
        records = read_journal(jdir).records
        assert [f.payload for f in seen] == records

    def test_subscribe_during_drain_serves_backlog_only(self, tmp_path):
        # The drain window must not strand a reconnecting follower: it
        # gets the remaining backlog (journal replay includes the drain
        # record) and a clean end instead of a rejection.
        from repro.service.server import CampaignServer

        spec = CampaignSpec(name="t", jobs=(), **FAST)
        server = CampaignServer(spec, tmp_path / "journal", tmp_path / "s")
        server._commit("campaign", spec=spec.to_dict())
        server._draining = True
        response = server._op_subscribe({"op": "subscribe",
                                         "topic": "journal"})
        token, topic, backlog, queue = response["_stream"]
        assert token is None and queue is None, "no live tail during drain"
        assert topic == "journal"
        assert [f.payload["type"] for f in backlog] == ["campaign"]
        assert not server.hub._subscribers, "drain path must not register"

    def test_follow_ends_cleanly_on_drain(self):
        spec = CampaignSpec(name="t", jobs=(), **FAST)
        seen: list[Frame] = []
        with running_server(spec) as (client, jdir):
            tail = ServiceClient(client.socket_path, session="tail",
                                 policy=TEST_POLICY)

            def _consume():
                for frame in tail.follow("journal", timeout_s=30.0,
                                         give_up_s=10.0):
                    seen.append(frame)

            thread = threading.Thread(target=_consume, daemon=True)
            thread.start()
            _run_jobs(client, 2)
            client.drain()
            thread.join(timeout=15)
            assert not thread.is_alive()
        assert [f.seq for f in seen] == list(range(1, len(seen) + 1))
        assert seen[-1].payload["type"] == "drain"

    def test_unknown_topic_over_the_wire(self):
        spec = CampaignSpec(name="t", jobs=(), **FAST)
        with running_server(spec) as (client, _):
            with pytest.raises(ProtocolError, match="unknown event topic"):
                client.events("gossip")
            with pytest.raises(ProtocolError, match="unknown event topic"):
                list(client.subscribe("gossip"))
