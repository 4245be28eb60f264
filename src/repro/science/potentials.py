"""Pair potentials, including a machine-learned one.

The "MD potentials" motif (Table I; Jia et al., Nguyen-Cong et al.): train a
model on expensive reference forces/energies, then run MD with the learned
potential at a fraction of the cost. :class:`MLPairPotential` learns a pair
energy curve from any reference potential's samples and then serves energies
and forces through the same interface, so it drops straight into
:class:`~repro.science.md.LennardJonesMD`.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.mlp import MLP


class PairPotential(Protocol):
    """Interface the MD engine consumes: vectorised e(r) and f(r)/r."""

    def energy(self, r: np.ndarray) -> np.ndarray: ...

    def force_over_r(self, r: np.ndarray) -> np.ndarray: ...


class LennardJonesPotential:
    """12-6 Lennard-Jones in reduced units: e(r) = 4 eps ((s/r)^12 - (s/r)^6)."""

    def __init__(self, epsilon: float = 1.0, sigma: float = 1.0):
        if epsilon <= 0 or sigma <= 0:
            raise ConfigurationError("epsilon and sigma must be positive")
        self.epsilon = epsilon
        self.sigma = sigma

    def energy(self, r: np.ndarray) -> np.ndarray:
        sr6 = (self.sigma / r) ** 6
        return 4.0 * self.epsilon * (sr6 * sr6 - sr6)

    def force_over_r(self, r: np.ndarray) -> np.ndarray:
        """f(r)/r with f = -de/dr; positive = repulsive."""
        sr6 = (self.sigma / r) ** 6
        return 24.0 * self.epsilon * (2.0 * sr6 * sr6 - sr6) / (r * r)


class MLPairPotential:
    """An MLP fit to a reference pair-energy curve.

    Trains on (r, e(r)) samples; forces come from a centered finite
    difference of the learned curve. ``r_min`` guards the unphysical
    short-range region: below it the learned energy is extrapolated with a
    stiff harmonic wall so MD cannot fall into network artefacts — the
    out-of-distribution failure mode Section VI-A.2 warns about.
    """

    def __init__(
        self,
        r_min: float = 0.8,
        r_max: float = 3.0,
        hidden: list[int] | None = None,
        seed: int | None = None,
    ):
        if not 0 < r_min < r_max:
            raise ConfigurationError("need 0 < r_min < r_max")
        self.r_min = r_min
        self.r_max = r_max
        self.net = MLP([1, *(hidden or [48, 48]), 1], hidden_activation="tanh", seed=seed)
        self._fitted = False
        self._wall_energy = 0.0
        self._wall_slope = 0.0

    def fit(
        self,
        reference: PairPotential,
        n_samples: int = 512,
        epochs: int = 400,
        lr: float = 5e-3,
        seed: int | None = None,
    ) -> list[float]:
        """Sample the reference on [r_min, r_max] and train; returns loss
        history. Samples are denser at short range where the curve is stiff."""
        rng = np.random.default_rng(seed)
        # sqrt-spacing concentrates points at small r
        u = rng.uniform(0, 1, size=n_samples)
        r = self.r_min + (self.r_max - self.r_min) * u**2
        e = reference.energy(r)
        history = self.net.fit(
            r.reshape(-1, 1), e.reshape(-1, 1), epochs=epochs, lr=lr, batch_size=64,
            seed=seed,
        )
        self._fitted = True
        # calibrate the short-range wall to match value and slope at r_min
        h = 1e-4
        e0 = float(self.net.predict([[self.r_min + h]])[0, 0])
        e1 = float(self.net.predict([[self.r_min]])[0, 0])
        self._wall_energy = e1
        self._wall_slope = max(1.0, (e1 - e0) / h)  # keep it repulsive
        return history

    def _require_fit(self) -> None:
        if not self._fitted:
            raise ConfigurationError("MLPairPotential used before fit()")

    def energy(self, r: np.ndarray) -> np.ndarray:
        self._require_fit()
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        clipped = np.clip(flat, self.r_min, self.r_max)
        e = self.net.predict(clipped.reshape(-1, 1)).ravel()
        below = flat < self.r_min
        if below.any():
            d = self.r_min - flat[below]
            e[below] = self._wall_energy + self._wall_slope * d + 50.0 * d * d
        e[flat > self.r_max] = 0.0
        return e.reshape(r.shape)

    def force_over_r(self, r: np.ndarray) -> np.ndarray:
        self._require_fit()
        r = np.asarray(r, dtype=float)
        h = 1e-4
        de_dr = (self.energy(r + h) - self.energy(r - h)) / (2 * h)
        safe_r = np.where(np.isfinite(r) & (r > 0), r, np.inf)
        return -de_dr / safe_r

    def rmse_against(
        self, reference: PairPotential, n_points: int = 200
    ) -> float:
        """Validation RMSE on an even grid over the fitted range."""
        self._require_fit()
        r = np.linspace(self.r_min, self.r_max, n_points)
        return float(np.sqrt(np.mean((self.energy(r) - reference.energy(r)) ** 2)))
