"""Worker-count and per-item seed helpers for the replica fan-out.

:func:`resolve_jobs` normalises a ``--jobs`` value, and :func:`spawn_seeds`
gives per-item child seeds via ``np.random.SeedSequence`` spawning, keyed
by *item index* rather than worker layout, so a Monte-Carlo ensemble draws
the same streams at every ``n_jobs``
(:func:`repro.exec.replicas.monte_carlo`).

>>> len(spawn_seeds(0, 3)) == 3 and spawn_seeds(0, 3) == spawn_seeds(0, 3)
True
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["resolve_jobs", "spawn_seeds"]


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
