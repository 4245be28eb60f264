"""Principal component analysis via SVD.

PCA appears in the paper's Figure 3 discussion as one of the "other" ML
methods projects use; the workflows use it for latent-space analysis. Uses
the thin SVD (``full_matrices=False``) — computing only what is needed, per
the scientific-Python optimisation guidance.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class PCA:
    """Fit/transform PCA keeping ``n_components`` directions."""

    def __init__(self, n_components: int):
        if n_components < 1:
            raise ConfigurationError("n_components must be >= 1")
        self.n_components = n_components
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None  # (k, d)
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "PCA":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        if self.n_components > min(n, d):
            raise ConfigurationError(
                f"n_components={self.n_components} exceeds min(n, d)={min(n, d)}"
            )
        self.mean_ = x.mean(axis=0)
        centered = x - self.mean_
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        k = self.n_components
        self.components_ = vt[:k]
        var = (s**2) / max(1, n - 1)
        self.explained_variance_ = var[:k]
        self.explained_variance_ratio_ = var[:k] / var.sum()
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.components_ is None or self.mean_ is None:
            raise ConfigurationError("transform called before fit")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x - self.mean_) @ self.components_.T

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)
