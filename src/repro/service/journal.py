"""Write-ahead journal: fsync'd transitions with crash-tolerant replay.

Every campaign state transition (ingest, lease, heartbeat, complete,
requeue, fail) is appended here and flushed to stable storage *before* the
server acknowledges the request. The durability contract is therefore
one-directional: an acked transition is always replayable; an unacked one
may be torn or missing — and the state machine never told anyone it
happened, so discarding it on replay is correct.

The bytes are a :mod:`repro.segmentlog` log under the ``wal-`` prefix,
which owns the line format, rotation and torn-tail policy. The journal
numbers records with a monotonically increasing ``seq``; replay refuses a
gap with :class:`~repro.errors.CorruptLog`, and after a failed write the
journal is closed, so a reopen continues at the last durable ``seq`` + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import segmentlog
from repro.errors import ConfigurationError, CorruptLog

__all__ = ["Journal", "JournalReplay", "read_journal", "segment_paths"]

SEGMENT_PREFIX = "wal-"
#: Segment rotation threshold in bytes.
SEGMENT_MAX_BYTES = 4 * 1024 * 1024


def segment_paths(directory: str | Path) -> list[Path]:
    """Journal segments under ``directory``, in write order."""
    return segmentlog.segment_paths(directory, SEGMENT_PREFIX)


@dataclass
class JournalReplay:
    """Everything replay recovered, plus what it had to throw away."""

    records: list[dict[str, Any]] = field(default_factory=list)
    discarded_tails: int = 0

    @property
    def last_seq(self) -> int:
        return self.records[-1]["seq"] if self.records else 0


def read_journal(directory: str | Path) -> JournalReplay:
    """Replay every acked record from ``directory``.

    >>> import tempfile
    >>> d = tempfile.mkdtemp()
    >>> j = Journal(d)
    >>> _ = j.append_commit("ingest", job_id="a")
    >>> j.close()
    >>> [r["type"] for r in read_journal(d).records]
    ['ingest']
    """
    replay = JournalReplay()
    reader = segmentlog.LogReader(segment_paths(directory))
    for record in reader:
        if record.get("seq") != replay.last_seq + 1:
            raise CorruptLog(
                f"journal seq discontinuity in {reader.path.name!r}: "
                f"expected {replay.last_seq + 1}, found {record.get('seq')!r}"
            )
        replay.records.append(record)
    replay.discarded_tails = reader.discarded_tails
    return replay


class Journal:
    """Append-only writer half of the WAL (see the module docstring).

    ``metrics`` is an optional
    :class:`~repro.telemetry.metrics.MetricsRegistry`; appended records and
    fsyncs are counted under ``journal.*``.
    """

    def __init__(
        self, directory: str | Path, fsync: bool = True, metrics: Any = None
    ):
        self.metrics = metrics
        self._replay: JournalReplay | None = read_journal(directory)
        self._seq = self._replay.last_seq
        self._log = segmentlog.SegmentWriter(
            directory, SEGMENT_PREFIX, SEGMENT_MAX_BYTES, fsync
        )

    def take_replay(self) -> JournalReplay:
        """The replay opening read (to continue ``seq``); handed over once."""
        replay, self._replay = self._replay, None
        if replay is None:
            raise ConfigurationError("the journal replay was already taken")
        return replay

    def append(self, type: str, **payload: Any) -> dict[str, Any]:
        """Buffer one record; call :meth:`commit` before acking it."""
        if "seq" in payload or "type" in payload:
            raise ConfigurationError("seq/type are reserved journal fields")
        record = {"seq": self._seq + 1, "type": type, **payload}
        self._log.append(record)
        self._seq += 1
        self._count("journal.records")
        return record

    def commit(self) -> None:
        """Write buffered appends to stable storage (fsync) — *then* ack."""
        pending = self._log.pending_bytes
        self._log.commit()
        if pending and self._log.fsync:
            self._count("journal.fsyncs")

    def append_commit(self, type: str, **payload: Any) -> dict[str, Any]:
        """``append`` + ``commit`` in one call, for single-record transitions.

        >>> import tempfile
        >>> j = Journal(tempfile.mkdtemp())
        >>> j.append_commit("lease", job_id="a")["seq"]
        1
        """
        record = self.append(type, **payload)
        self.commit()
        return record

    @property
    def last_seq(self) -> int:
        return self._seq

    def close(self) -> None:
        self._log.close()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()
