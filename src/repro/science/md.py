"""Lennard-Jones molecular-dynamics mini-engine.

Stands in for NAMD/OpenMM in the multiscale and fault-detection workflows
(Section V-B, Table I): velocity-Verlet integration, periodic boundaries,
reduced LJ units, optional Langevin thermostat, and trajectory capture in a
form the autoencoders consume (flattened pair-distance "contact" features).

The implementation follows the vectorisation guidance of the HPC-Python
guides: the O(N^2) pair interactions are computed with broadcasting, with
the minimum-image convention applied arraywise — no Python-level pair loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.science.potentials import LennardJonesPotential, PairPotential


@dataclass
class MDState:
    """Positions/velocities plus box size, in reduced units."""

    positions: np.ndarray  # (n, dim)
    velocities: np.ndarray  # (n, dim)
    box: float

    def __post_init__(self) -> None:
        if self.positions.ndim != 2:
            raise ConfigurationError("positions must be (n, dim)")
        if self.positions.shape != self.velocities.shape:
            raise ConfigurationError("positions/velocities shape mismatch")
        if self.box <= 0:
            raise ConfigurationError("box must be positive")

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def kinetic_energy(self) -> float:
        return 0.5 * float((self.velocities**2).sum())

    def temperature(self) -> float:
        """Instantaneous kinetic temperature (k_B = 1, m = 1)."""
        dof = self.n_atoms * self.dim
        return 2.0 * self.kinetic_energy() / dof


def lattice_state(
    n_side: int,
    density: float = 0.8,
    temperature: float = 1.0,
    dim: int = 2,
    seed: int | None = None,
) -> MDState:
    """Atoms on a cubic lattice with Maxwell-Boltzmann velocities — the
    standard melt-from-lattice starting point."""
    if n_side < 1 or dim not in (2, 3):
        raise ConfigurationError("need n_side >= 1 and dim in (2, 3)")
    if density <= 0 or temperature <= 0:
        raise ConfigurationError("density and temperature must be positive")
    n = n_side**dim
    box = (n / density) ** (1.0 / dim)
    spacing = box / n_side
    grids = np.meshgrid(*([np.arange(n_side) * spacing + spacing / 2] * dim))
    positions = np.column_stack([g.ravel() for g in grids])
    rng = np.random.default_rng(seed)
    velocities = rng.normal(0.0, np.sqrt(temperature), size=(n, dim))
    velocities -= velocities.mean(axis=0)  # zero total momentum
    return MDState(positions=positions, velocities=velocities, box=box)


class LennardJonesMD:
    """Velocity-Verlet integrator over a pair potential.

    >>> state = lattice_state(5, density=0.5, seed=0)
    >>> md = LennardJonesMD(state, dt=0.001)
    >>> e0 = md.total_energy()
    >>> md.run(50)
    >>> abs(md.total_energy() - e0) < 1e-3 * abs(e0)   # NVE conservation
    True
    """

    def __init__(
        self,
        state: MDState,
        potential: PairPotential | None = None,
        dt: float = 0.005,
        cutoff: float = 2.5,
    ):
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        if cutoff <= 0:
            raise ConfigurationError("cutoff must be positive")
        if cutoff > state.box / 2:
            raise ConfigurationError("cutoff must be <= half the box")
        self.state = state
        self.potential = potential or LennardJonesPotential()
        self.dt = dt
        self.cutoff = cutoff
        # truncated-and-shifted potential: subtracting e(r_c) removes the
        # energy discontinuity when pairs cross the cutoff (standard LJ
        # practice; essential for clean NVE conservation measurements)
        self._energy_shift = float(self.potential.energy(np.array([cutoff]))[0])
        self._forces = self._compute_forces()

    # -- pair machinery -----------------------------------------------------------

    def _pair_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-image displacement vectors and distances for all pairs.

        Returns (dr, r): dr is (n, n, dim) antisymmetric, r is (n, n) with
        inf on the diagonal so self-interaction vanishes naturally.
        """
        pos = self.state.positions
        box = self.state.box
        dr = pos[:, None, :] - pos[None, :, :]
        dr -= box * np.round(dr / box)
        r = np.sqrt((dr**2).sum(-1))
        np.fill_diagonal(r, np.inf)
        return dr, r

    def _compute_forces(self) -> np.ndarray:
        dr, r = self._pair_vectors()
        within = r < self.cutoff
        f_over_r = np.where(within, self.potential.force_over_r(r), 0.0)
        # F_i = sum_j f(r_ij)/r * dr_ij
        return (f_over_r[:, :, None] * dr).sum(axis=1)

    def potential_energy(self) -> float:
        _, r = self._pair_vectors()
        within = r < self.cutoff
        e = np.where(within, self.potential.energy(r) - self._energy_shift, 0.0)
        return 0.5 * float(e.sum())  # each pair counted twice

    def total_energy(self) -> float:
        return self.potential_energy() + self.state.kinetic_energy()

    # -- integration ------------------------------------------------------------------

    def step(self) -> None:
        """One velocity-Verlet step (NVE)."""
        s, dt = self.state, self.dt
        s.velocities += 0.5 * dt * self._forces
        s.positions += dt * s.velocities
        s.positions %= s.box
        self._forces = self._compute_forces()
        s.velocities += 0.5 * dt * self._forces

    def langevin_step(
        self, temperature: float, friction: float, rng: np.random.Generator
    ) -> None:
        """BAOAB-style Langevin step for canonical sampling."""
        if temperature <= 0 or friction <= 0:
            raise ConfigurationError("temperature and friction must be positive")
        s, dt = self.state, self.dt
        s.velocities += 0.5 * dt * self._forces
        s.positions += 0.5 * dt * s.velocities
        c1 = np.exp(-friction * dt)
        c2 = np.sqrt((1 - c1**2) * temperature)
        s.velocities = c1 * s.velocities + c2 * rng.standard_normal(
            s.velocities.shape
        )
        s.positions += 0.5 * dt * s.velocities
        s.positions %= s.box
        self._forces = self._compute_forces()
        s.velocities += 0.5 * dt * self._forces

    def run(self, n_steps: int) -> None:
        if n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        for _ in range(n_steps):
            self.step()

    def sample_trajectory(
        self,
        n_frames: int,
        steps_per_frame: int = 10,
        temperature: float | None = None,
        friction: float = 1.0,
        seed: int | None = None,
    ) -> np.ndarray:
        """Collect ``n_frames`` feature vectors (sorted pair distances).

        With ``temperature`` set, samples the canonical ensemble via
        Langevin dynamics; otherwise NVE. Sorted pair distances are a
        permutation-invariant conformation descriptor — the role contact
        maps play for the CVAE in the DeepDriveMD-style workflows.
        """
        if n_frames < 1 or steps_per_frame < 1:
            raise ConfigurationError("frame counts must be >= 1")
        rng = np.random.default_rng(seed)
        frames = []
        for _ in range(n_frames):
            for _ in range(steps_per_frame):
                if temperature is None:
                    self.step()
                else:
                    self.langevin_step(temperature, friction, rng)
            frames.append(self.descriptor())
        return np.array(frames)

    def descriptor(self) -> np.ndarray:
        """Sorted upper-triangle pair distances of the current frame."""
        _, r = self._pair_vectors()
        iu = np.triu_indices(self.state.n_atoms, k=1)
        return np.sort(r[iu])
