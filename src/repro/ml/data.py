"""Synthetic dataset generators for tests and examples."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def regression_friedman(
    n: int, noise: float = 0.1, seed: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The Friedman #1 benchmark: 5 informative of 10 features.

    y = 10 sin(pi x0 x1) + 20 (x2 - 0.5)^2 + 10 x3 + 5 x4 + noise
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 10))
    y = (
        10 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20 * (x[:, 2] - 0.5) ** 2
        + 10 * x[:, 3]
        + 5 * x[:, 4]
        + rng.normal(0, noise, size=n)
    )
    return x, y.reshape(-1, 1)


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


def gaussian_blobs(
    n: int, centers: int = 3, dim: int = 2, spread: float = 0.3,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated Gaussian clusters for clustering tests."""
    if n < centers:
        raise ConfigurationError("need at least one point per center")
    rng = np.random.default_rng(seed)
    mus = rng.uniform(-3, 3, size=(centers, dim))
    labels = rng.integers(0, centers, size=n)
    x = mus[labels] + rng.normal(0, spread, size=(n, dim))
    return x, labels


def latent_manifold(
    n: int, n_features: int = 20, latent_dim: int = 2,
    noise: float = 0.02, seed: int | None = None,
) -> np.ndarray:
    """Points on a smooth nonlinear ``latent_dim``-manifold embedded in
    ``n_features`` dimensions — the autoencoder test bed (a stand-in for MD
    conformation contact maps)."""
    if latent_dim >= n_features:
        raise ConfigurationError("latent_dim must be < n_features")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1, 1, size=(n, latent_dim))
    # random smooth embedding: sin/cos features of random linear maps
    w1 = rng.normal(size=(latent_dim, n_features))
    w2 = rng.normal(size=(latent_dim, n_features))
    x = np.sin(z @ w1) + np.cos(z @ w2)
    return x + rng.normal(0, noise, size=x.shape)
