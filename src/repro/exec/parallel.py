"""``ParallelMap``: the shard->merge primitive of the execution fabric.

One abstraction, two backends:

- ``n_jobs=1`` — a plain in-process loop, byte-for-byte the seed code path;
- ``n_jobs>1`` — a ``concurrent.futures`` process pool; tasks are
  distributed to workers but results always come back **in submission
  order**, so a caller that shards deterministically and merges in order
  is bit-identical to the serial path regardless of worker count.

Its callers fan out coarse tasks — verify sections, replica ensembles —
where each task outweighs the pool's scatter/gather. :func:`spawn_seeds`
gives per-item child seeds via ``np.random.SeedSequence`` spawning, keyed
by *item index* rather than worker layout, so a Monte-Carlo ensemble draws
the same streams at every ``n_jobs``.

>>> pm = ParallelMap(n_jobs=1)
>>> pm.map(abs, [-3, -1, 2])
[3, 1, 2]
>>> len(spawn_seeds(0, 3)) == 3 and spawn_seeds(0, 3) == spawn_seeds(0, 3)
True
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ParallelMap", "resolve_jobs", "spawn_seeds"]


def resolve_jobs(n_jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0``/negative -> all cores."""
    if n_jobs is None or n_jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(n_jobs)


def spawn_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent child seeds from ``SeedSequence(seed).spawn(n)``.

    Child ``i`` depends only on ``(seed, i)`` — never on how items are later
    packed onto workers — which is what makes replica ensembles agree
    exactly between ``n_jobs=1`` and ``n_jobs=8``.
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    return [
        int(child.generate_state(1, dtype=np.uint32)[0])
        for child in np.random.SeedSequence(seed).spawn(n)
    ]


class ParallelMap:
    """Ordered fan-out of one picklable callable over a list of items.

    ``map(fn, items)`` returns ``[fn(x) for x in items]`` — same values,
    same order — with the work spread over ``n_jobs`` processes when
    ``n_jobs > 1``. ``fn`` and the items must be picklable for the pool
    backend (module-level functions and ``functools.partial`` of them are;
    lambdas are not).
    """

    def __init__(self, n_jobs: int = 1):
        self.n_jobs = resolve_jobs(n_jobs)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        work = list(items)
        if self.n_jobs == 1 or len(work) <= 1:
            return [fn(item) for item in work]
        workers = min(self.n_jobs, len(work))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map preserves submission order in its results.
            return list(pool.map(fn, work))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelMap(n_jobs={self.n_jobs})"
