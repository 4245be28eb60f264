"""Section V-A: the materials workflow (Liu et al.).

Pipeline: expensive first-principles energies (our exact lattice
Hamiltonian, with every evaluation counted) -> BIC-selected cluster
expansion -> Monte Carlo over temperature with the surrogate in the loop ->
order-disorder transition temperature.

Quantitative target: the surrogate-driven sweep must locate the transition
near the exact Onsager value T_c ~ 2.269 J/k_B while calling the expensive
model orders of magnitude less often than a fully first-principles sweep
would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.science.cluster_expansion import ClusterExpansion
from repro.science.ising import (
    AlloyLattice,
    MCResult,
    MonteCarlo,
    estimate_critical_temperature,
    exact_critical_temperature,
)


@dataclass
class MaterialsResult:
    """Outcome of the materials workflow."""

    tc_estimate: float
    tc_exact: float
    expensive_calls: int
    mc_energy_evaluations: int
    ce_terms: tuple[int, ...]
    ce_rmse: float
    sweep: list[MCResult]

    @property
    def tc_relative_error(self) -> float:
        return abs(self.tc_estimate - self.tc_exact) / self.tc_exact

    @property
    def call_reduction(self) -> float:
        """How many expensive evaluations the surrogate displaced."""
        if self.expensive_calls == 0:
            return float("inf")
        return self.mc_energy_evaluations / self.expensive_calls


class MaterialsWorkflow:
    """ML-accelerated statistical mechanics of a binary alloy."""

    def __init__(self, lattice_size: int = 16, seed: int | None = 0):
        if lattice_size < 4:
            raise ConfigurationError("lattice_size must be >= 4")
        self.lattice_size = lattice_size
        self.seed = seed
        self.expensive_calls = 0

    # -- the "first principles" oracle ----------------------------------------------

    def expensive_energy(self, lattice: AlloyLattice) -> float:
        """The exact Hamiltonian, standing in for an LSMS/DFT evaluation.
        Every call is counted — this is the budget the workflow economises."""
        self.expensive_calls += 1
        return lattice.energy()

    # -- training-set generation -------------------------------------------------------

    def generate_training_data(
        self, n_configs: int = 48, temperatures: tuple[float, float] = (0.8, 5.0)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decorrelated configurations across the temperature range, labelled
        by the expensive model."""
        if n_configs < 4:
            raise ConfigurationError("need at least 4 training configurations")
        rng = np.random.default_rng(self.seed)
        feats = np.empty((n_configs, 4))
        energies = np.empty(n_configs)
        for i in range(n_configs):
            lat = AlloyLattice(
                self.lattice_size, seed=None if self.seed is None else self.seed + i
            )
            mc = MonteCarlo(lat, seed=None if self.seed is None else self.seed + i)
            t = rng.uniform(*temperatures)
            mc.run(t, n_sweeps=2, n_warmup=30)
            feats[i] = lat.correlations()
            energies[i] = self.expensive_energy(lat) / lat.spins.size
        return feats, energies

    # -- the full workflow ----------------------------------------------------------------

    def run(
        self,
        n_training: int = 48,
        temperatures: np.ndarray | None = None,
        n_sweeps: int = 150,
        n_warmup: int = 100,
    ) -> MaterialsResult:
        """Train the cluster expansion and run the surrogate-in-the-loop
        temperature sweep."""
        feats, energies = self.generate_training_data(n_training)
        ce = ClusterExpansion.fit(feats, energies)

        if temperatures is None:
            temperatures = np.linspace(3.4, 1.2, 12)
        temps = list(np.asarray(temperatures, dtype=float))
        if not temps:
            raise ConfigurationError("temperature grid must be non-empty")

        lat = AlloyLattice(self.lattice_size, seed=self.seed)
        mc = MonteCarlo(lat, seed=self.seed)
        sweep = mc.temperature_sweep(
            temps, n_sweeps=n_sweeps, n_warmup=n_warmup, energy_model=ce
        )
        mc_energy_evaluations = len(temps) * n_sweeps

        return MaterialsResult(
            tc_estimate=estimate_critical_temperature(sweep),
            tc_exact=exact_critical_temperature(lat.j),
            expensive_calls=self.expensive_calls,
            mc_energy_evaluations=mc_energy_evaluations,
            ce_terms=ce.terms,
            ce_rmse=ce.training_rmse,
            sweep=sweep,
        )
