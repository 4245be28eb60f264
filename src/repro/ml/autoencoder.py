"""Autoencoders: plain and variational.

The biology and drug-design workflows (Sections V-B, V-C) use convolutional
variational autoencoders (CVAE) and anharmonic-conformational-analysis
autoencoders (ANCA-AE) to embed simulation conformations into a latent space
whose outliers drive steering. We implement dense (MLP-based) equivalents:
the latent-space mechanics — encode, sample, reconstruct, outlier score —
are identical, which is what the workflow logic exercises.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.mlp import MLP
from repro.optim.adam import Adam


class Autoencoder:
    """Deterministic autoencoder: encoder MLP -> latent -> decoder MLP."""

    def __init__(
        self,
        n_features: int,
        latent_dim: int,
        hidden: list[int] | None = None,
        seed: int | None = None,
    ):
        if latent_dim < 1 or latent_dim >= n_features:
            raise ConfigurationError("latent_dim must be in [1, n_features)")
        hidden = hidden if hidden is not None else [max(8, n_features // 2)]
        self.encoder = MLP([n_features, *hidden, latent_dim], seed=seed)
        self.decoder = MLP(
            [latent_dim, *reversed(hidden), n_features],
            seed=None if seed is None else seed + 1,
        )
        self.latent_dim = latent_dim

    def encode(self, x: np.ndarray) -> np.ndarray:
        return self.encoder.forward(x)

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.decoder.forward(z)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        return self.decode(self.encode(x))

    def reconstruction_error(self, x: np.ndarray) -> np.ndarray:
        """Per-sample squared reconstruction error — the outlier score the
        steering workflows threshold on."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        recon = self.reconstruct(x)
        return ((x - recon) ** 2).mean(axis=1)

    def fit(
        self,
        x: np.ndarray,
        epochs: int = 100,
        lr: float = 1e-3,
        batch_size: int = 64,
        seed: int | None = None,
    ) -> list[float]:
        """Joint end-to-end training; returns per-epoch reconstruction loss."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        opt = Adam(lr=lr)
        rng = np.random.default_rng(seed)
        n = x.shape[0]
        history: list[float] = []
        params = self.encoder.parameters + self.decoder.parameters
        for _ in range(epochs):
            order = rng.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, batch_size):
                xb = x[order[start : start + batch_size]]
                z = self.encoder.forward(xb)
                recon = self.decoder.forward(z)
                diff = recon - xb
                loss = float(np.mean(diff * diff))
                grad = 2.0 * diff / diff.size
                grad_z = self.decoder.backward(grad)
                self.encoder.backward(grad_z)
                grads = self.encoder.gradients + self.decoder.gradients
                opt.step(params, grads)
                total += loss
                batches += 1
            history.append(total / batches)
        return history


class VariationalAutoencoder(Autoencoder):
    """Dense VAE with a diagonal-Gaussian latent and the reparameterisation
    trick. The encoder outputs ``[mu, log_var]`` (2 x latent_dim)."""

    def __init__(
        self,
        n_features: int,
        latent_dim: int,
        hidden: list[int] | None = None,
        beta: float = 1.0,
        seed: int | None = None,
    ):
        if latent_dim < 1 or 2 * latent_dim >= n_features:
            raise ConfigurationError("need 2*latent_dim < n_features")
        if beta < 0:
            raise ConfigurationError("beta must be non-negative")
        hidden = hidden if hidden is not None else [max(8, n_features // 2)]
        self.encoder = MLP([n_features, *hidden, 2 * latent_dim], seed=seed)
        self.decoder = MLP(
            [latent_dim, *reversed(hidden), n_features],
            seed=None if seed is None else seed + 1,
        )
        self.latent_dim = latent_dim
        self.beta = beta

    def encode(self, x: np.ndarray) -> np.ndarray:
        """The latent mean (the deterministic embedding used downstream)."""
        stats = self.encoder.forward(x)
        return stats[:, : self.latent_dim]

    def fit(
        self,
        x: np.ndarray,
        epochs: int = 100,
        lr: float = 1e-3,
        batch_size: int = 64,
        seed: int | None = None,
    ) -> list[float]:
        """ELBO training (reconstruction + beta * KL); returns loss history."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        opt = Adam(lr=lr)
        rng = np.random.default_rng(seed)
        n = x.shape[0]
        history: list[float] = []
        params = self.encoder.parameters + self.decoder.parameters
        L = self.latent_dim
        for _ in range(epochs):
            order = rng.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, batch_size):
                xb = x[order[start : start + batch_size]]
                stats = self.encoder.forward(xb)
                mu = stats[:, :L]
                log_var = np.clip(stats[:, L:], -10.0, 10.0)
                eps = rng.standard_normal(mu.shape)
                sigma = np.exp(0.5 * log_var)
                z = mu + sigma * eps
                recon = self.decoder.forward(z)

                diff = recon - xb
                recon_loss = float(np.mean(diff * diff))
                kl = 0.5 * float(
                    np.mean(np.sum(mu**2 + np.exp(log_var) - 1.0 - log_var, axis=1))
                )
                loss = recon_loss + self.beta * kl

                grad_recon = 2.0 * diff / diff.size
                grad_z = self.decoder.backward(grad_recon)
                b = xb.shape[0]
                grad_mu = grad_z + self.beta * mu / b
                grad_log_var = (
                    grad_z * eps * 0.5 * sigma
                    + self.beta * 0.5 * (np.exp(log_var) - 1.0) / b
                )
                grad_stats = np.concatenate([grad_mu, grad_log_var], axis=1)
                self.encoder.backward(grad_stats)
                grads = self.encoder.gradients + self.decoder.gradients
                opt.step(params, grads)
                total += loss
                batches += 1
            history.append(total / batches)
        return history
