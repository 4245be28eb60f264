"""Segmented JSONL logs: the one on-disk format under the campaign journal
(:mod:`repro.service.journal`) and the telemetry shards
(:mod:`repro.telemetry.stream`).

A log is a directory of ``<prefix>NNNNNNNN.jsonl`` segments whose lines
read ``<CRC-32 of the body as 8 lowercase hex digits> <canonical JSON
body>``. Writers never append to a segment an earlier process left (it may
end in a torn line), and a failed write closes the writer for good, so
nothing lands after a record that may be partial. Readers skip and count
a damaged *final* line per segment — the one record a crash can tear —
and raise :class:`~repro.errors.CorruptLog` naming ``file:line`` for
damage anywhere else. Journal lines written before this format
(``{"crc": N, ...}`` over the canonical encoding of the rest) still read.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.atomicio import fsync_dir
from repro.errors import ConfigurationError, CorruptLog

__all__ = ["LogReader", "SegmentWriter", "canonical_json", "decode_line",
           "encode_line", "segment_paths"]

SUFFIX = ".jsonl"


def canonical_json(obj: Any) -> str:
    """The one canonical JSON encoding: sorted keys, no spaces, ASCII.

    Log lines, telemetry exports, pubsub frames and the service's socket
    messages all use it, so equal values always give equal bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_line(record: dict[str, Any]) -> bytes:
    """One log line: the CRC prefix, the canonical JSON body, a newline."""
    body = canonical_json(record).encode()
    return b"%08x %b\n" % (zlib.crc32(body), body)


def decode_line(line: bytes) -> dict[str, Any] | None:
    """The record ``line`` holds, or ``None`` if the line is damaged."""
    body = line[9:-1]
    prefixed = line[:9] == b"%08x " % zlib.crc32(body)
    try:
        record = json.loads((body if prefixed else line).decode())
    except ValueError:
        return None
    if not (isinstance(record, dict) and line.endswith(b"\n")):
        return None
    if prefixed:
        return record
    crc = record.pop("crc", None)  # a pre-prefix journal line
    return record if crc == zlib.crc32(encode_line(record)[9:-1]) else None


def segment_paths(directory: str | Path, prefix: str) -> list[Path]:
    """The ``prefix`` log's segments under ``directory``, in write order."""
    directory = Path(directory)
    if not directory.exists():
        return []
    paths = sorted(
        p for p in directory.iterdir()
        if p.name.startswith(prefix) and p.name.endswith(SUFFIX)
    )
    for path in paths:
        index = path.name[len(prefix):-len(SUFFIX)]
        if len(index) != 8 or not (index.isascii() and index.isdigit()):
            raise CorruptLog(
                f"log segment {path.name!r} has a non-numeric index "
                f"(want {prefix}NNNNNNNN{SUFFIX})"
            )
    return paths


class SegmentWriter:
    """Append records to the ``prefix`` log under ``directory``.

    ``commit`` writes the buffered appends to the open segment or to a new
    one, ``"xb"``-created after the last segment there; flushes; fsyncs if
    ``fsync``; and closes the segment once it holds ``max_bytes``.
    ``n_segments`` counts the segments this writer created.
    """

    def __init__(
        self, directory: str | Path, prefix: str, max_bytes: int, fsync: bool
    ):
        if max_bytes < 1:
            raise ConfigurationError(f"max_bytes must be positive: {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.max_bytes = max_bytes
        self.fsync = fsync
        existing = segment_paths(self.directory, prefix)
        self._index = (
            int(existing[-1].name[len(prefix):-len(SUFFIX)]) if existing else 0
        )
        self.n_segments = 0
        self.pending_bytes = 0
        self.closed = False
        self._pending: list[bytes] = []
        self._fh = None

    def append(self, record: dict[str, Any]) -> None:
        """Encode and buffer one record; :meth:`commit` writes it."""
        if self.closed:
            raise ConfigurationError(f"the {self.prefix}* log is closed")
        line = encode_line(record)
        self._pending.append(line)
        self.pending_bytes += len(line)

    def commit(self) -> None:
        """Write the buffered records, flush, and fsync if the flag is set."""
        if not self._pending:
            return
        if self.closed:
            raise ConfigurationError(f"the {self.prefix}* log is closed")
        try:
            if self._fh is None:
                self._index += 1
                name = f"{self.prefix}{self._index:08d}{SUFFIX}"
                self._fh = open(self.directory / name, "xb")
                self.n_segments += 1
                if self.fsync:
                    fsync_dir(self.directory)
            self._fh.write(b"".join(self._pending))
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        except OSError:
            self.closed = True
            if self._fh is not None:
                with contextlib.suppress(OSError):
                    self._fh.close()
            raise
        self._pending.clear()
        self.pending_bytes = 0
        if self._fh.tell() >= self.max_bytes:
            self.rotate()

    def rotate(self) -> None:
        """Commit, then close the segment: the next commit starts a new one."""
        self.commit()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def close(self) -> None:
        """Commit and close (idempotent)."""
        if not self.closed:
            self.rotate()
            self.closed = True


class LogReader:
    """Iterate the intact records of the segments ``paths``, in order.

    ``discarded_tails`` counts the torn final lines skipped; ``path`` is
    the segment being read.
    """

    def __init__(self, paths: Iterable[str | Path]):
        self.paths = [Path(p) for p in paths]
        self.discarded_tails = 0
        self.path: Path | None = None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        for path in self.paths:
            self.path = path
            damaged = 0
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if damaged:
                        raise CorruptLog(
                            f"damaged record mid-segment at "
                            f"{path.name}:{damaged} — not a torn tail; "
                            "refusing to read on"
                        )
                    record = decode_line(line)
                    if record is None:
                        damaged = lineno
                    else:
                        yield record
            if damaged:
                self.discarded_tails += 1
