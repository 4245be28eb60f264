"""Monte-Carlo replica fan-out over per-replica child seeds.

The seed-stable sharded-execution discipline: replica ``i`` of an ensemble
always runs with the ``i``-th child of ``SeedSequence(seed)`` regardless of
how replicas are packed onto workers, so ``n_jobs=1`` and ``n_jobs=8``
produce identical result lists (asserted by the test suite). Used by the
checkpoint-restart ensembles (:func:`repro.resilience.restart.restart_ensemble`),
the scheduler fault ensembles
(:func:`repro.scheduler.simulator.schedule_ensemble`) and the ``repro
telemetry --replicas`` trace merger.

>>> from functools import partial
>>> def draw(scale, child_seed):
...     import numpy as np
...     return float(np.random.default_rng(child_seed).normal()) * scale
>>> a = monte_carlo(partial(draw, 2.0), 4, seed=7, n_jobs=1)
>>> a == monte_carlo(partial(draw, 2.0), 4, seed=7, n_jobs=1)
True
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.exec.parallel import ParallelMap, spawn_seeds

__all__ = ["monte_carlo"]


def monte_carlo(
    fn: Callable[[int], Any],
    n_replicas: int,
    seed: int = 0,
    n_jobs: int = 1,
) -> list[Any]:
    """Evaluate ``fn(child_seed)`` for every replica, in replica order.

    ``fn`` must be picklable for ``n_jobs > 1`` (a module-level function or
    a ``functools.partial`` of one).
    """
    if n_replicas < 1:
        raise ConfigurationError(f"n_replicas must be >= 1, got {n_replicas}")
    return ParallelMap(n_jobs).map(fn, spawn_seeds(seed, n_replicas))
