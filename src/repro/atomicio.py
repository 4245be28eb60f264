"""Crash-safe file writes: the tmp + ``os.replace`` pattern, in one place.

A bare ``path.write_text(...)`` can be interrupted half way — by a SIGKILL,
an OOM kill, or a full disk — leaving a torn artifact that the next reader
parses as garbage. Every writer of a load-bearing artifact (benchmark
records, conformance reports, cache entries, trace exports) instead
writes to a sibling temporary file and atomically renames it into place:
readers see either the old complete file or the new complete file, never a
prefix. (Append-only logs append in place; see :mod:`repro.segmentlog`.)

``fsync=True`` additionally flushes the file *and its directory entry* to
stable storage before returning; :func:`fsync_dir` is the directory half.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "fsync_dir",
]


def fsync_dir(directory: str | Path) -> None:
    """Flush a directory entry so a just-renamed file survives power loss."""
    fd = os.open(str(directory), os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | Path, data: bytes, fsync: bool = False
) -> Path:
    """Write ``data`` to ``path`` atomically; return the final path.

    The temporary sibling carries the writer's PID so two processes racing
    the same destination never clobber each other's scratch file — the last
    ``os.replace`` wins and both leave a complete artifact behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(data)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_dir(path.parent)
    return path


@contextmanager
def atomic_writer(path: str | Path, fsync: bool = False):
    """Stream into ``path`` atomically: yields a binary file handle.

    The incremental sibling of :func:`atomic_write_bytes` for writers that
    cannot (or should not) materialize the whole payload first, such as
    the JSONL export. The handle writes to the temporary sibling;
    the rename into place happens only when the ``with`` body exits
    cleanly. On an exception the scratch file is removed and the
    destination is untouched.

    >>> import tempfile, pathlib
    >>> p = pathlib.Path(tempfile.mkdtemp()) / "out.jsonl"
    >>> with atomic_writer(p) as fh:
    ...     _ = fh.write(b'{"a":1}\\n')
    ...     _ = fh.write(b'{"b":2}\\n')
    >>> p.read_text()
    '{"a":1}\\n{"b":2}\\n'
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
    except BaseException:
        if tmp.exists():
            tmp.unlink()
        raise
    os.replace(tmp, path)
    if fsync:
        fsync_dir(path.parent)


def atomic_write_text(
    path: str | Path, text: str, fsync: bool = False
) -> Path:
    """Text-mode convenience over :func:`atomic_write_bytes` (UTF-8).

    >>> import tempfile, pathlib
    >>> p = pathlib.Path(tempfile.mkdtemp()) / "out.json"
    >>> _ = atomic_write_text(p, '{"ok": true}')
    >>> p.read_text()
    '{"ok": true}'
    """
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)
