"""Data-parallel execution fabric and the campaign service's result cache.

The paper's core quantitative story (Sections IV-B and VI-B) is
data-parallel scaling: identical work fanned out over many workers with
deterministic aggregation — worth it only while each worker's compute
outweighs the exchange. This package gives the reproduction the same
discipline at the process level:

- :mod:`repro.exec.parallel` — :class:`ParallelMap`, the ordered fan-out
  (serial / process-pool backends) of coarse tasks such as the ``repro
  verify`` sections and replica ensembles, plus the ``SeedSequence``
  spawning helper that makes ``n_jobs=1`` and ``n_jobs=8`` agree bit for
  bit;
- :mod:`repro.exec.cache` — :class:`ResultCache`, the campaign service's
  content-addressed on-disk memo of JSON job results under
  ``.repro-cache/``, keyed by a digest of (handler, params, seed, code
  fingerprint), one checksummed line per entry;
- :mod:`repro.exec.replicas` — Monte-Carlo fan-out over per-replica child
  seeds for scheduler simulations, checkpoint-restart ensembles and
  telemetry scenario replicas.

Determinism contract: parallelism only changes *which process* evaluates a
task, never the values — every consumer (``repro verify``, the replica
ensembles) reassembles results in a stable order and the test suite
asserts byte-identity against the serial path.
"""

from repro.exec.cache import ResultCache, code_fingerprint, content_key
from repro.exec.parallel import ParallelMap, resolve_jobs, spawn_seeds
from repro.exec.replicas import monte_carlo

__all__ = [
    "ParallelMap",
    "ResultCache",
    "code_fingerprint",
    "content_key",
    "monte_carlo",
    "resolve_jobs",
    "spawn_seeds",
]
