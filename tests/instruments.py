"""Measuring instruments that tests of kept code use.

No production path runs these, so they live beside the tests:

- synthetic data sets for the ML tests (:func:`regression_friedman`,
  :func:`gaussian_blobs`, :func:`latent_manifold`);
- the pair radial distribution function of an MD configuration
  (:func:`radial_distribution`);
- the cross-table sums of the paper's survey reference tables
  (:func:`consistency_report`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.portfolio.reference import (
    _DOMAIN_ORDER,
    DOMAIN_TABLE,
    FIG6_DOMAIN_TOTALS,
    FIG56_COHORT,
    MOTIF_COUNTS,
    MOTIF_DOMAIN_MATRIX,
    PROGRAM_YEAR_TABLE,
)
from repro.portfolio.taxonomy import Program
from repro.science.md import LennardJonesMD


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


def radial_distribution(
    md: LennardJonesMD, n_bins: int = 50, r_max: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """g(r) histogram of ``md``'s current configuration; returns (r, g)."""
    if n_bins < 2:
        raise ConfigurationError("n_bins must be >= 2")
    state = md.state
    r_max = r_max or state.box / 2
    _, r = md._pair_vectors()
    iu = np.triu_indices(state.n_atoms, k=1)
    dists = r[iu]
    hist, edges = np.histogram(dists[dists < r_max], bins=n_bins, range=(0, r_max))
    centers = 0.5 * (edges[1:] + edges[:-1])
    n = state.n_atoms
    density = n / state.box**state.dim
    if state.dim == 2:
        shell = 2 * np.pi * centers * np.diff(edges)
    else:
        shell = 4 * np.pi * centers**2 * np.diff(edges)
    ideal = density * shell * n / 2
    g = np.divide(hist, ideal, out=np.zeros_like(centers), where=ideal > 0)
    return centers, g


def consistency_report() -> dict[str, bool]:
    """Cross-table consistency checks of :mod:`repro.portfolio.reference`."""
    totals = {}
    for program in Program:
        if program is Program.GORDON_BELL:
            continue
        totals[program] = sum(
            t for (p, _), (t, _, _) in PROGRAM_YEAR_TABLE.items() if p is program
        )
    active = sum(a for _, a, _ in PROGRAM_YEAR_TABLE.values())
    inactive = sum(i for _, _, i in PROGRAM_YEAR_TABLE.values())
    domain_total = sum(t for t, _, _ in DOMAIN_TABLE.values())
    domain_active = sum(a for _, a, _ in DOMAIN_TABLE.values())
    domain_inactive = sum(i for _, _, i in DOMAIN_TABLE.values())
    matrix = np.array(
        [[MOTIF_DOMAIN_MATRIX[m][d] for d in _DOMAIN_ORDER] for m in MOTIF_COUNTS]
    )
    return {
        "incite_147": totals[Program.INCITE] == 147,
        "alcc_72": totals[Program.ALCC] == 72,
        "dd_352": totals[Program.DD] == 352,
        "covid_12": totals[Program.COVID] == 12,
        "ecp_62": totals[Program.ECP] == 62,
        "study_total_645": sum(totals.values()) == 645,
        "active_matches_domains": active == domain_active,
        "inactive_matches_domains": inactive == domain_inactive,
        "domain_total_645": domain_total == 645,
        "fig56_cohort_117": sum(MOTIF_COUNTS.values()) == FIG56_COHORT,
        "matrix_rows_match": all(
            int(matrix[i].sum()) == count
            for i, count in enumerate(MOTIF_COUNTS.values())
        ),
        "matrix_cols_match": all(
            int(matrix[:, j].sum()) == FIG6_DOMAIN_TOTALS[d]
            for j, d in enumerate(_DOMAIN_ORDER)
        ),
    }
