"""Live event streaming: the campaign server's pubsub hub and wire frames.

The observability counterpart of the write-ahead journal: where the journal
makes every state transition *durable*, the hub makes it *visible* — a
subscriber on the campaign's unix socket watches leases, completions,
requeues, telemetry instants and counter samples as they happen, without
polling ``status`` and without the server buffering unboundedly for slow
readers.

Topics:

- ``journal`` — every committed journal record, published *after* the
  fsync that made it durable, carrying the journal's own monotonic ``seq``.
  Because the backlog for this topic is served from the journal files on
  disk, a subscriber that reconnects with ``since_seq`` set to the last
  frame it saw receives every missed record exactly once, in order — even
  across a server SIGKILL and restart.
- ``spans`` / ``events`` / ``counters`` — the server telemetry handle's
  closed spans, instant events and counter samples (the hub is a telemetry
  *tap*; payloads are the same wire records the JSONL exporters and shard
  files use). These are advisory: history is a bounded ring, so ``seq``
  gaps are possible and honest.

Frames are length-prefixed canonical JSON — ``<byte-len>\\n<body>\\n`` with
``body = {"payload": ..., "seq": N, "topic": "...", "v": 1}`` — so a reader
never depends on payload newlines, and version skew fails loudly rather
than silently misparsing. ``seq`` 0 is reserved for the end-of-stream
control frame (:func:`eos_frame`): the server sends it when the campaign
drains, so a clean end is *in-band* and a bare EOF always means the
connection was severed (server killed) — the distinction ``follow``
needs to decide between stopping and reconnecting.

Flow control is per-subscriber and lossy-but-honest: each subscriber owns a
bounded queue; when it falls behind, frames are *dropped* (never buffered
into an OOM), the drop is counted in the server metrics, and the gap is
visible to the client as a ``seq`` jump it can repair via resubscribe.

>>> hub = PubSubHub(history=8)
>>> frame = hub.publish("events", {"name": "requeue"})
>>> (frame.topic, frame.seq)
('events', 1)
>>> decode_frame(encode_frame(frame)[encode_frame(frame).index(b"\\n") + 1:])
Frame(topic='events', seq=1, payload={'name': 'requeue'})
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Iterable

from repro.errors import ProtocolError, ServiceError
from repro.segmentlog import canonical_json

__all__ = [
    "FRAME_VERSION",
    "Frame",
    "HubSink",
    "PubSubHub",
    "TOPICS",
    "decode_frame",
    "encode_frame",
    "eos_frame",
    "read_frame",
]

#: Bumped on any incompatible frame change; readers reject other versions.
FRAME_VERSION = 1
#: Topics the hub serves. ``journal`` is durable (disk-backed backlog);
#: the telemetry topics are ring-buffered.
TOPICS = ("journal", "spans", "events", "counters")
#: The topic each telemetry wire record type is published on (HubSink).
_RECORD_TOPICS = {"span": "spans", "instant": "events", "sample": "counters"}
#: Cap on one frame body — matches the server's request-line cap.
MAX_FRAME_BYTES = 32 * 1024 * 1024
#: Per-subscriber queue bound: a reader this far behind starts losing
#: frames (counted, and visible as a seq gap) instead of growing the heap.
SUBSCRIBER_QUEUE_FRAMES = 1024


@dataclass(frozen=True)
class Frame:
    """One published event: a topic, a per-topic monotonic seq, a payload."""

    topic: str
    seq: int
    payload: dict[str, Any]

    def to_wire(self) -> dict[str, Any]:
        return {
            "payload": self.payload, "seq": self.seq,
            "topic": self.topic, "v": FRAME_VERSION,
        }

    @property
    def is_eos(self) -> bool:
        """True for the reserved end-of-stream control frame (seq 0)."""
        return self.seq == 0


def eos_frame(topic: str) -> Frame:
    """The end-of-stream control frame: seq 0, never a real event.

    Published frames always carry ``seq >= 1``, so seq 0 unambiguously
    marks a *clean* stream end (campaign drained) as opposed to a severed
    connection (bare EOF, server killed mid-stream).
    """
    return Frame(topic=topic, seq=0, payload={"type": "eos"})


def encode_frame(frame: Frame) -> bytes:
    """``<byte-len>\\n<canonical-json-body>\\n`` — self-delimiting."""
    body = canonical_json(frame.to_wire()).encode("utf-8")
    return str(len(body)).encode("ascii") + b"\n" + body + b"\n"


def decode_frame(body: bytes) -> Frame:
    """Parse one frame body (the bytes between the two newlines)."""
    try:
        wire = json.loads(body.decode("utf-8"))
        if not isinstance(wire, dict):
            raise ValueError
    except (ValueError, UnicodeDecodeError):
        raise ProtocolError("event frame body is not a JSON object") from None
    if wire.get("v") != FRAME_VERSION:
        raise ProtocolError(
            f"event frame version {wire.get('v')!r} is not the supported "
            f"version {FRAME_VERSION}"
        )
    try:
        return Frame(
            topic=wire["topic"], seq=int(wire["seq"]),
            payload=wire["payload"],
        )
    except (KeyError, TypeError, ValueError):
        raise ProtocolError("event frame is missing topic/seq/payload") from None


def read_frame(fh: BinaryIO) -> Frame | None:
    """Read one frame from a blocking byte stream; ``None`` on clean EOF."""
    header = fh.readline()
    if not header:
        return None
    try:
        length = int(header.strip())
    except ValueError:
        raise ProtocolError(
            f"event frame header {header[:32]!r} is not a length"
        ) from None
    if not 0 <= length <= MAX_FRAME_BYTES:
        raise ProtocolError(f"event frame length {length} out of bounds")
    body = fh.read(length + 1)  # body + trailing newline
    if len(body) < length + 1:
        return None  # torn mid-frame: the stream died
    return decode_frame(body[:length])


@dataclass
class _Subscriber:
    topic: str
    queue: "asyncio.Queue[Frame | None]"
    dropped: int = 0


@dataclass
class PubSubHub:
    """Fan one event stream out to bounded per-subscriber queues.

    Single-threaded by design: ``publish`` and ``subscribe`` run
    synchronously on the server's event loop (between awaits), so
    registering a subscriber and computing its backlog is atomic — a frame
    is either in the backlog or will arrive on the queue, never both,
    never neither.
    """

    metrics: Any = None
    history: int = 4096
    _seqs: dict[str, int] = field(default_factory=dict)
    _rings: dict[str, deque] = field(default_factory=dict)
    _subscribers: dict[int, _Subscriber] = field(default_factory=dict)
    _next_token: int = 1
    closed: bool = False

    def publish(
        self, topic: str, payload: dict[str, Any], seq: int | None = None
    ) -> Frame:
        """Publish one event; returns the frame (with its assigned seq).

        ``seq`` overrides the hub's per-topic counter — the journal topic
        passes the durable journal seq so frames and WAL records share one
        numbering. Caller-supplied seqs must still be monotonic.
        """
        if self.closed:
            raise ServiceError("pubsub hub is closed")
        if topic not in TOPICS:
            raise ProtocolError(
                f"unknown event topic {topic!r}; choose from {list(TOPICS)}"
            )
        last = self._seqs.get(topic, 0)
        if seq is None:
            seq = last + 1
        elif seq <= last:
            raise ServiceError(
                f"{topic}: seq {seq} not after {last} — frames must be "
                "published in order"
            )
        self._seqs[topic] = seq
        frame = Frame(topic=topic, seq=seq, payload=payload)
        ring = self._rings.get(topic)
        if ring is None:
            ring = self._rings[topic] = deque(maxlen=self.history)
        ring.append(frame)
        self._count("service.events_published")
        for sub in self._subscribers.values():
            if sub.topic != topic:
                continue
            try:
                sub.queue.put_nowait(frame)
            except asyncio.QueueFull:
                sub.dropped += 1
                self._count("service.subscriber_drops")
        return frame

    def backlog(self, topic: str, since_seq: int = 0) -> list[Frame]:
        """Ring-buffered frames with ``seq > since_seq`` (oldest first)."""
        return [
            f for f in self._rings.get(topic, ()) if f.seq > since_seq
        ]

    def subscribe(
        self, topic: str, since_seq: int = 0
    ) -> tuple[int, list[Frame], "asyncio.Queue[Frame | None]"]:
        """Register a subscriber; returns (token, backlog, live queue).

        The queue receives every frame published after this call (up to
        its bound); the backlog covers ``seq > since_seq`` from the ring.
        Callers needing the durable journal backlog read it from disk and
        ignore the ring's (the server does exactly this).
        """
        if self.closed:
            raise ServiceError("pubsub hub is closed")
        if topic not in TOPICS:
            raise ProtocolError(
                f"unknown event topic {topic!r}; choose from {list(TOPICS)}"
            )
        token = self._next_token
        self._next_token += 1
        queue: "asyncio.Queue[Frame | None]" = asyncio.Queue(
            maxsize=SUBSCRIBER_QUEUE_FRAMES
        )
        self._subscribers[token] = _Subscriber(topic=topic, queue=queue)
        self._gauge_subscribers()
        return token, self.backlog(topic, since_seq), queue

    def unsubscribe(self, token: int) -> None:
        self._subscribers.pop(token, None)
        self._gauge_subscribers()

    def last_seq(self, topic: str) -> int:
        return self._seqs.get(topic, 0)

    def close(self) -> None:
        """Seal the hub: wake every subscriber with an end-of-stream."""
        if self.closed:
            return
        self.closed = True
        for sub in self._subscribers.values():
            while True:
                try:
                    sub.queue.put_nowait(None)
                    break
                except asyncio.QueueFull:
                    # Slow reader at shutdown: sacrifice its oldest queued
                    # frame so the end-of-stream sentinel always lands.
                    sub.queue.get_nowait()
                    sub.dropped += 1
                    self._count("service.subscriber_drops")

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _gauge_subscribers(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("service.subscribers").set(
                float(len(self._subscribers))
            )


class HubSink:
    """Telemetry tap → hub bridge (register via ``Telemetry.add_tap``).

    Publishes the server handle's closed spans, instant events and counter
    samples on the ``spans`` / ``events`` / ``counters`` topics, as the
    same wire records the JSONL exporters and telemetry shards use.
    Dropping events once the hub closes (server drain) is deliberate —
    late telemetry must not resurrect a sealed stream.
    """

    def __init__(self, hub: PubSubHub):
        self.hub = hub

    def emit(self, record: dict[str, Any]) -> None:
        if not self.hub.closed:
            self.hub.publish(_RECORD_TOPICS[record["type"]], record)


def frames_from_journal(
    records: Iterable[dict[str, Any]], since_seq: int = 0
) -> list[Frame]:
    """Journal records → ``journal``-topic frames (durable backlog path)."""
    return [
        Frame(topic="journal", seq=record["seq"], payload=record)
        for record in records
        if record["seq"] > since_seq
    ]
