"""Synthetic compound-binding landscape with two scoring fidelities.

The drug pipelines the paper surveys (Glaser, Blanchard, Saadi/IMPECCABLE)
share one structure: a huge compound library, a cheap-but-noisy scoring
tier (docking / learned surrogate), and an expensive accurate tier (MD
free-energy refinement). This module provides a deterministic ground truth
with both tiers so the workflow logic — rank with the cheap tier, escalate
the top fraction, retrain — can be validated quantitatively (does the loop
actually enrich for true binders?).

Compounds are fixed-length integer genomes (fragment sequences), matching
the GA representation of Blanchard et al. The true affinity is a rugged but
deterministic function: per-position fragment contributions plus pairwise
epistatic couplings — an NK-style landscape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CompoundLibrary:
    """A virtual library of ``n_compounds`` random genomes."""

    genomes: np.ndarray  # (n, length) ints in [0, n_fragments)
    n_fragments: int

    @classmethod
    def random(
        cls,
        n_compounds: int,
        genome_length: int = 12,
        n_fragments: int = 16,
        seed: int | None = None,
    ) -> "CompoundLibrary":
        if n_compounds < 1 or genome_length < 1 or n_fragments < 2:
            raise ConfigurationError("bad library dimensions")
        rng = np.random.default_rng(seed)
        genomes = rng.integers(0, n_fragments, size=(n_compounds, genome_length))
        return cls(genomes=genomes, n_fragments=n_fragments)

    def __len__(self) -> int:
        return self.genomes.shape[0]

    def features(self, genomes: np.ndarray | None = None) -> np.ndarray:
        """One-hot fragment features, (n, length * n_fragments) — what the
        surrogate models consume."""
        g = self.genomes if genomes is None else np.atleast_2d(genomes)
        n, length = g.shape
        out = np.zeros((n, length * self.n_fragments))
        rows = np.repeat(np.arange(n), length)
        cols = (np.arange(length) * self.n_fragments)[None, :] + g
        out[rows, cols.ravel()] = 1.0
        return out


class DockingOracle:
    """Ground-truth binding affinity plus its two observable fidelities.

    - ``true_affinity``: hidden ground truth (higher = better binder).
    - ``docking_score``: cheap tier — truth corrupted by a systematic bias
      (a random linear misweighting) and noise. Deterministic per compound.
    - ``md_refine``: expensive tier — truth plus small zero-mean noise, with
      a call counter so workflows can account their simulation budget.
    """

    def __init__(
        self,
        genome_length: int = 12,
        n_fragments: int = 16,
        epistasis: float = 0.5,
        docking_noise: float = 3.0,
        md_noise: float = 0.05,
        seed: int | None = None,
    ):
        if genome_length < 2 or n_fragments < 2:
            raise ConfigurationError("bad landscape dimensions")
        if epistasis < 0 or docking_noise < 0 or md_noise < 0:
            raise ConfigurationError("noise/epistasis must be non-negative")
        self.genome_length = genome_length
        self.n_fragments = n_fragments
        rng = np.random.default_rng(seed)
        # additive fragment contributions per position
        self._additive = rng.normal(0, 1, size=(genome_length, n_fragments))
        # pairwise epistatic couplings between adjacent positions
        self._pairwise = epistasis * rng.normal(
            0, 1, size=(genome_length - 1, n_fragments, n_fragments)
        )
        # the docking tier's systematic misweighting and deterministic noise
        self._bias = rng.normal(0, docking_noise, size=(genome_length, n_fragments))
        self.md_noise = md_noise
        self._md_rng = np.random.default_rng(None if seed is None else seed + 1)
        self.md_calls = 0

    def _check(self, genomes: np.ndarray) -> np.ndarray:
        g = np.atleast_2d(np.asarray(genomes, dtype=int))
        if g.shape[1] != self.genome_length:
            raise ConfigurationError(
                f"genomes must have length {self.genome_length}, got {g.shape[1]}"
            )
        if (g < 0).any() or (g >= self.n_fragments).any():
            raise ConfigurationError("fragment index out of range")
        return g

    def true_affinity(self, genomes: np.ndarray) -> np.ndarray:
        g = self._check(genomes)
        pos = np.arange(self.genome_length)
        additive = self._additive[pos, g].sum(axis=1)
        left = g[:, :-1]
        right = g[:, 1:]
        pair_pos = np.arange(self.genome_length - 1)
        pairwise = self._pairwise[pair_pos, left, right].sum(axis=1)
        return additive + pairwise

    def docking_score(self, genomes: np.ndarray) -> np.ndarray:
        """Cheap tier: deterministic, biased. Free to call."""
        g = self._check(genomes)
        pos = np.arange(self.genome_length)
        bias = self._bias[pos, g].sum(axis=1)
        return self.true_affinity(g) + bias

    def md_refine(self, genomes: np.ndarray) -> np.ndarray:
        """Expensive tier: near-truth. Increments ``md_calls`` per compound."""
        g = self._check(genomes)
        self.md_calls += g.shape[0]
        return self.true_affinity(g) + self._md_rng.normal(
            0, self.md_noise, size=g.shape[0]
        )
