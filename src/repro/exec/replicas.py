"""Monte-Carlo replica fan-out over per-replica child seeds.

The seed-stable discipline: replica ``i`` of an ensemble always runs with
the ``i``-th child of ``SeedSequence(seed)`` regardless of how replicas
are packed onto workers, so ``n_jobs=1`` and ``n_jobs=8`` produce
identical result lists (asserted by the test suite). Its one caller is
the checkpoint-restart ensemble
(:func:`repro.resilience.restart.restart_ensemble`), the one ensemble
whose replicas each outweigh a worker's start-up and exchange: on a
2-vCPU host a 2-worker pool ran it about 1.5x faster than the serial loop
(EXPERIMENTS.md, "Process pools measured").

>>> from functools import partial
>>> def draw(scale, child_seed):
...     import numpy as np
...     return float(np.random.default_rng(child_seed).normal()) * scale
>>> a = monte_carlo(partial(draw, 2.0), 4, seed=7, n_jobs=1)
>>> a == monte_carlo(partial(draw, 2.0), 4, seed=7, n_jobs=1)
True
"""

from __future__ import annotations

from concurrent import futures
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.exec.parallel import resolve_jobs, spawn_seeds

__all__ = ["monte_carlo"]


def monte_carlo(
    fn: Callable[[int], Any],
    n_replicas: int,
    seed: int = 0,
    n_jobs: int = 1,
) -> list[Any]:
    """Evaluate ``fn(child_seed)`` for every replica, in replica order.

    With one worker or one replica the loop runs in-process. Otherwise the
    replicas fan out over ``min(n_jobs, n_replicas)`` worker processes, so
    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` of one; lambdas are not).
    """
    if n_replicas < 1:
        raise ConfigurationError(f"n_replicas must be >= 1, got {n_replicas}")
    seeds = spawn_seeds(seed, n_replicas)
    workers = min(resolve_jobs(n_jobs), n_replicas)
    if workers == 1:
        return [fn(child_seed) for child_seed in seeds]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        # Executor.map returns results in submission order.
        return list(pool.map(fn, seeds))
