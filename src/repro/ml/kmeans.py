"""k-means clustering (Lloyd's algorithm with k-means++ seeding).

Used by the Markov-state-model analysis (``case_analysis``) to cluster
embedded MD frames into metastable states.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError


class KMeans:
    """Vectorised Lloyd iterations; empty clusters are reseeded from the
    point farthest from its centroid."""

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 300,
        tol: float = 1e-6,
        seed: int | None = None,
    ):
        if n_clusters < 1:
            raise ConfigurationError("n_clusters must be >= 1")
        if max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.centroids_: np.ndarray | None = None
        self.inertia_: float | None = None
        self.n_iter_: int | None = None

    def _init_centroids(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding."""
        n = x.shape[0]
        centroids = [x[rng.integers(n)]]
        for _ in range(1, self.n_clusters):
            d2 = np.min(
                ((x[:, None, :] - np.array(centroids)[None]) ** 2).sum(-1), axis=1
            )
            total = d2.sum()
            if total == 0:
                centroids.append(x[rng.integers(n)])
                continue
            probs = d2 / total
            centroids.append(x[rng.choice(n, p=probs)])
        return np.array(centroids)

    def fit(self, x: np.ndarray) -> "KMeans":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] < self.n_clusters:
            raise ConfigurationError(
                f"{x.shape[0]} samples < {self.n_clusters} clusters"
            )
        rng = np.random.default_rng(self.seed)
        centroids = self._init_centroids(x, rng)
        for iteration in range(self.max_iter):
            d2 = ((x[:, None, :] - centroids[None]) ** 2).sum(-1)
            labels = d2.argmin(axis=1)
            new_centroids = centroids.copy()
            for k in range(self.n_clusters):
                members = x[labels == k]
                if members.size == 0:
                    # reseed from the worst-fit point
                    worst = int(d2.min(axis=1).argmax())
                    new_centroids[k] = x[worst]
                else:
                    new_centroids[k] = members.mean(axis=0)
            shift = float(np.abs(new_centroids - centroids).max())
            centroids = new_centroids
            if shift < self.tol:
                break
        else:
            iteration = self.max_iter - 1
        self.centroids_ = centroids
        d2 = ((x[:, None, :] - centroids[None]) ** 2).sum(-1)
        self.inertia_ = float(d2.min(axis=1).sum())
        self.n_iter_ = iteration + 1
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.centroids_ is None:
            raise ConvergenceError("predict called before fit")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d2 = ((x[:, None, :] - self.centroids_[None]) ** 2).sum(-1)
        return d2.argmin(axis=1)

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).predict(x)
