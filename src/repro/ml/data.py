"""The two-moons classification set the NAS case study (`case_nas`) trains on."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def two_moons(
    n: int, noise: float = 0.08, seed: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaving half circles — a classification toy set."""
    if n < 2:
        raise ConfigurationError("n must be >= 2")
    rng = np.random.default_rng(seed)
    half = n // 2
    t1 = rng.uniform(0, np.pi, half)
    t2 = rng.uniform(0, np.pi, n - half)
    x1 = np.column_stack([np.cos(t1), np.sin(t1)])
    x2 = np.column_stack([1 - np.cos(t2), -np.sin(t2) + 0.5])
    x = np.vstack([x1, x2]) + rng.normal(0, noise, size=(n, 2))
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return x, y
