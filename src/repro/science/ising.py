"""Binary-alloy lattice model and Metropolis Monte Carlo.

Stands in for the first-principles statistical-mechanics workflow of
Liu et al. (Section V-A): a two-species alloy on a square lattice whose
nearest-neighbour interaction favours unlike neighbours (B2-type chemical
ordering, as in CuZn). Mapping occupancy to Ising spins makes this the
antiferromagnetic Ising model, whose order-disorder transition temperature
is known exactly (Onsager): ``T_c = 2 / ln(1 + sqrt(2)) ~ 2.269 J/k_B`` —
giving the workflow reproduction a rigorous quantitative target.

The Hamiltonian may be the exact one or any callable energy model (e.g. a
learned :class:`~repro.science.cluster_expansion.ClusterExpansion`), which
is precisely how the ML-accelerated workflow swaps in its surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


def exact_critical_temperature(j: float = 1.0) -> float:
    """Onsager's exact T_c for the 2-D square-lattice Ising model."""
    if j <= 0:
        raise ConfigurationError("coupling must be positive")
    return 2.0 * j / math.log(1.0 + math.sqrt(2.0))


class AlloyLattice:
    """An L x L binary alloy configuration with periodic boundaries.

    Spins are +1 (species A) / -1 (species B). ``j > 0`` is the ordering
    energy: H = +j * sum_<nn> s_i s_j, so unlike neighbours are favoured
    and the ground state is the checkerboard (B2) superstructure.
    """

    def __init__(self, size: int, j: float = 1.0, seed: int | None = None):
        if size < 2:
            raise ConfigurationError("lattice size must be >= 2")
        if size % 2:
            raise ConfigurationError(
                "size must be even so the checkerboard ground state fits"
            )
        if j <= 0:
            raise ConfigurationError("coupling j must be positive")
        self.size = size
        self.j = j
        rng = np.random.default_rng(seed)
        self.spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(size, size))
        # staggered sign mask for the order parameter
        ii, jj = np.indices((size, size))
        self._stagger = np.where((ii + jj) % 2 == 0, 1, -1).astype(np.int8)

    # -- observables ---------------------------------------------------------------

    def neighbour_sum(self) -> np.ndarray:
        """Sum of the four nearest-neighbour spins at every site."""
        s = self.spins
        return (
            np.roll(s, 1, 0) + np.roll(s, -1, 0) + np.roll(s, 1, 1) + np.roll(s, -1, 1)
        )

    def energy(self) -> float:
        """Total configurational energy (each bond counted once)."""
        s = self.spins
        bonds = s * (np.roll(s, -1, 0) + np.roll(s, -1, 1))
        return float(self.j * bonds.sum())

    def energy_per_site(self) -> float:
        return self.energy() / self.spins.size

    def order_parameter(self) -> float:
        """Long-range (staggered) order in [0, 1]: 1 = perfect B2 order."""
        return float(abs((self.spins * self._stagger).mean()))

    def composition(self) -> float:
        """Fraction of species A."""
        return float((self.spins == 1).mean())

    # -- correlation features (inputs to the cluster expansion) ----------------------

    def correlations(self) -> np.ndarray:
        """Per-site cluster correlation functions [point, nn-pair, 2nn-pair,
        3nn-pair] — the descriptor vector the cluster expansion fits to."""
        s = self.spins.astype(float)
        n = s.size
        point = s.mean()
        nn = (s * (np.roll(s, -1, 0) + np.roll(s, -1, 1))).sum() / (2 * n)
        second = (
            s * (np.roll(np.roll(s, -1, 0), -1, 1) + np.roll(np.roll(s, -1, 0), 1, 1))
        ).sum() / (2 * n)
        third = (s * (np.roll(s, -2, 0) + np.roll(s, -2, 1))).sum() / (2 * n)
        return np.array([point, nn, second, third])


@dataclass
class MCResult:
    """Averages collected over the measurement phase of a Monte Carlo run."""

    temperature: float
    energy_per_site: float
    order_parameter: float
    specific_heat: float
    susceptibility: float
    acceptance_rate: float


class MonteCarlo:
    """Metropolis sampler with vectorised checkerboard updates.

    The checkerboard decomposition updates all same-colour sites at once
    (they do not interact), giving numpy-speed sweeps — the guide-recommended
    vectorisation of the classic site-by-site loop. The site-by-site
    reference lives with the test oracles (``tests/oracles/ising.py``): it
    consumes the random stream in exactly the same pattern (one full-lattice
    uniform draw per colour), so the two produce **bit-identical spin
    trajectories** for the same seed — asserted by the parity tests.
    """

    def __init__(self, lattice: AlloyLattice, seed: int | None = None):
        self.lattice = lattice
        self.rng = np.random.default_rng(seed)
        size = lattice.size
        ii, jj = np.indices((size, size))
        self._color = (ii + jj) % 2 == 0

    def sweep(self, temperature: float) -> float:
        """One full lattice sweep (both colours); returns acceptance rate.

        Fast path: all same-colour sites update simultaneously from the
        pre-update neighbour sums — valid because same-colour sites never
        neighbour each other on the square lattice.
        """
        if temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        accepted = 0
        for color in (self._color, ~self._color):
            s = self.lattice.spins
            nbr = self.lattice.neighbour_sum()
            # Energy change of flipping spin i: dE = -2 j s_i * nbr_i
            # (H = +j sum s s', flipping s_i changes bond energy by -2 j s_i nbr_i)
            d_e = -2.0 * self.lattice.j * s * nbr
            accept = (d_e <= 0) | (
                self.rng.random(s.shape) < np.exp(-np.clip(d_e, 0, None) / temperature)
            )
            flip = accept & color
            s[flip] = -s[flip]
            accepted += int(flip.sum())
        return accepted / self.lattice.spins.size

    def run(
        self,
        temperature: float,
        n_sweeps: int = 200,
        n_warmup: int = 100,
        energy_model=None,
    ) -> MCResult:
        """Equilibrate then measure at ``temperature``.

        ``energy_model`` — if given, a callable mapping an
        :class:`AlloyLattice` to a total energy; measurements use it instead
        of the exact Hamiltonian (the surrogate-in-the-loop configuration).
        Proposal acceptance always uses the exact local rule; the surrogate
        path exercises the *measurement* substitution the materials workflow
        makes, keeping detailed balance intact.
        """
        if n_sweeps < 1 or n_warmup < 0:
            raise ConfigurationError("need n_sweeps >= 1, n_warmup >= 0")
        for _ in range(n_warmup):
            self.sweep(temperature)
        energies = np.empty(n_sweeps)
        orders = np.empty(n_sweeps)
        acc = 0.0
        n_sites = self.lattice.spins.size
        for i in range(n_sweeps):
            acc += self.sweep(temperature)
            if energy_model is None:
                energies[i] = self.lattice.energy_per_site()
            else:
                energies[i] = energy_model(self.lattice) / n_sites
            orders[i] = self.lattice.order_parameter()
        e_mean = float(energies.mean())
        m_mean = float(orders.mean())
        return MCResult(
            temperature=temperature,
            energy_per_site=e_mean,
            order_parameter=m_mean,
            specific_heat=float(energies.var()) * n_sites / temperature**2,
            susceptibility=float(orders.var()) * n_sites / temperature,
            acceptance_rate=acc / n_sweeps,
        )

    def temperature_sweep(
        self,
        temperatures: list[float],
        n_sweeps: int = 200,
        n_warmup: int = 100,
        energy_model=None,
    ) -> list[MCResult]:
        """Anneal through ``temperatures`` (order preserved), measuring at
        each. Reusing the configuration between temperatures shortens
        equilibration, as in production annealing studies."""
        if not temperatures:
            raise ConfigurationError("temperatures must be non-empty")
        return [
            self.run(t, n_sweeps=n_sweeps, n_warmup=n_warmup, energy_model=energy_model)
            for t in temperatures
        ]


def estimate_critical_temperature(results: list[MCResult]) -> float:
    """T_c estimate: the temperature with the largest specific-heat peak."""
    if not results:
        raise ConfigurationError("results must be non-empty")
    peak = max(results, key=lambda r: r.specific_heat)
    return peak.temperature
