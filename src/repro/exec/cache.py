"""Content-addressed on-disk memo of the campaign service's job results.

The campaign server (:mod:`repro.service.server`) keys each completed job's
result by a SHA-256 digest of *what was computed*: a canonical encoding of
the job's (handler, params, seed) payload plus a fingerprint of the
``repro`` package source. Because the fingerprint participates in the key,
editing any ``.py`` file under the package silently invalidates every prior
entry — stale results can never be returned after a refactor.

Each entry is one :func:`repro.segmentlog.encode_line` line — a CRC-32
prefix and the canonical JSON of ``{"value": result}`` — two-level sharded
by digest prefix (``.repro-cache/ab/ab12...json``; ``$REPRO_CACHE_DIR``
moves the root). A missing, truncated or damaged entry loads as a miss,
never as a different value or an exception.

>>> import tempfile
>>> cache = ResultCache(root=tempfile.mkdtemp())
>>> key = content_key("demo", {"x": 1})
>>> cache.load(key)
(False, None)
>>> _ = cache.store(key, [1, 2, 3])
>>> cache.load(key)
(True, [1, 2, 3])
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any

from repro.atomicio import atomic_write_bytes
from repro.errors import ConfigurationError
from repro.segmentlog import decode_line, encode_line

__all__ = ["ResultCache", "code_fingerprint", "content_key"]

#: Environment override for the cache location (CI points it at a workspace
#: subdirectory so artifacts can be inspected).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"

_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` source file of the ``repro`` package.

    Computed once per process and cached; participates in every cache key
    so any source change invalidates all previously stored results.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def _feed(digest: Any, obj: Any) -> None:
    """Canonically encode ``obj`` into ``digest`` (order-stable, typed)."""
    if obj is None:
        digest.update(b"n;")
    elif isinstance(obj, bool):
        digest.update(f"b:{obj};".encode())
    elif isinstance(obj, int):
        digest.update(f"i:{obj};".encode())
    elif isinstance(obj, float):
        digest.update(f"f:{obj.hex()};".encode())
    elif isinstance(obj, str):
        digest.update(f"s:{len(obj)}:".encode() + obj.encode() + b";")
    elif isinstance(obj, dict):
        digest.update(b"d:")
        for key in sorted(obj, key=repr):
            _feed(digest, key)
            _feed(digest, obj[key])
        digest.update(b";")
    elif isinstance(obj, (list, tuple)):
        digest.update(b"l:")
        for item in obj:
            _feed(digest, item)
        digest.update(b";")
    else:
        raise ConfigurationError(
            f"cannot build a content key over {type(obj).__name__!r} "
            f"({obj!r}); pass JSON data: dicts, lists, strings, numbers, "
            "booleans or None"
        )


def content_key(kind: str, payload: Any) -> str:
    """The cache key: digest of (kind, canonical payload, code fingerprint).

    >>> a = content_key("job", {"handler": "quadrature", "seed": 1})
    >>> a == content_key("job", {"seed": 1, "handler": "quadrature"})
    True
    >>> a == content_key("job", {"handler": "quadrature", "seed": 2})
    False
    """
    digest = hashlib.sha256()
    digest.update(f"k:{kind};".encode())
    _feed(digest, payload)
    digest.update(f"src:{code_fingerprint()};".encode())
    return digest.hexdigest()


class ResultCache:
    """Content-addressed store of JSON values, one checksummed line each."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> tuple[bool, Any]:
        """``(hit, value)``; a missing or damaged entry is a miss."""
        try:
            record = decode_line(self.path_for(key).read_bytes())
        except OSError:
            return False, None
        if record is None:
            return False, None
        return True, record["value"]

    def store(self, key: str, value: Any) -> Path:
        """Persist the JSON ``value`` under ``key`` (atomic rename)."""
        return atomic_write_bytes(
            self.path_for(key), encode_line({"value": value})
        )
