"""Replica fan-out and the campaign service's result cache.

The paper's core quantitative story (Sections IV-B and VI-B) is
data-parallel scaling: identical work fanned out over many workers with
deterministic aggregation — worth it only while each worker's compute
outweighs the exchange. This package keeps a process pool only where that
measured true:

- :mod:`repro.exec.replicas` — :func:`monte_carlo`, the fan-out of a
  Monte-Carlo ensemble over per-replica child seeds. Its one caller is the
  checkpoint-restart ensemble (``repro resilience --replicas N --jobs
  M``); with one worker or one replica it runs in-process;
- :mod:`repro.exec.parallel` — :func:`resolve_jobs` and
  :func:`spawn_seeds`, the ``SeedSequence`` spawning helper that makes
  ``n_jobs=1`` and ``n_jobs=8`` agree bit for bit;
- :mod:`repro.exec.cache` — :class:`ResultCache`, the campaign service's
  content-addressed on-disk memo of JSON job results under
  ``.repro-cache/``, keyed by a digest of (handler, params, seed, code
  fingerprint), one checksummed line per entry.

Determinism contract: the pool only changes *which process* evaluates a
replica, never the values — results come back in replica order, and the
test suite asserts byte-identity against the serial loop.
"""

from repro.exec.cache import ResultCache, code_fingerprint, content_key
from repro.exec.parallel import resolve_jobs, spawn_seeds
from repro.exec.replicas import monte_carlo

__all__ = [
    "ResultCache",
    "code_fingerprint",
    "content_key",
    "monte_carlo",
    "resolve_jobs",
    "spawn_seeds",
]
