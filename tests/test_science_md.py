"""Tests for the MD engine, potentials, FFEA stand-in and docking oracle."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.science.docking import CompoundLibrary, DockingOracle
from repro.science.ffea import MassSpringModel
from repro.science.md import LennardJonesMD, MDState, lattice_state
from repro.science.potentials import LennardJonesPotential, MLPairPotential
from tests.instruments import radial_distribution


class TestLattice:
    def test_atom_count(self):
        state = lattice_state(4, dim=2)
        assert state.n_atoms == 16

    def test_3d_lattice(self):
        state = lattice_state(3, dim=3)
        assert state.n_atoms == 27
        assert state.dim == 3

    def test_zero_total_momentum(self):
        state = lattice_state(5, seed=0)
        assert np.allclose(state.velocities.sum(axis=0), 0.0, atol=1e-12)

    def test_density_sets_box(self):
        state = lattice_state(4, density=0.5, dim=2)
        assert state.n_atoms / state.box**2 == pytest.approx(0.5)

    def test_temperature_near_request(self):
        state = lattice_state(10, temperature=2.0, seed=1)
        assert state.temperature() == pytest.approx(2.0, rel=0.15)

    def test_bad_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            lattice_state(4, dim=4)


class TestLennardJonesMD:
    @pytest.fixture
    def md(self):
        return LennardJonesMD(
            lattice_state(5, density=0.5, temperature=0.5, seed=0), dt=0.001
        )

    def test_nve_energy_conservation(self, md):
        e0 = md.total_energy()
        md.run(300)
        assert abs(md.total_energy() - e0) < 1e-4 * abs(e0)

    def test_forces_sum_to_zero(self, md):
        # Newton's third law: no net force on the whole system
        assert np.allclose(md._forces.sum(axis=0), 0.0, atol=1e-9)

    def test_positions_stay_in_box(self, md):
        md.run(200)
        assert (md.state.positions >= 0).all()
        assert (md.state.positions < md.state.box).all()

    def test_langevin_thermostats_to_target(self):
        md = LennardJonesMD(
            lattice_state(5, density=0.3, temperature=0.5, seed=1), dt=0.001
        )
        rng = np.random.default_rng(0)
        temps = []
        for _ in range(1500):
            md.langevin_step(1.0, friction=2.0, rng=rng)
        for _ in range(1000):
            md.langevin_step(1.0, friction=2.0, rng=rng)
            temps.append(md.state.temperature())
        assert np.mean(temps) == pytest.approx(1.0, rel=0.15)

    def test_langevin_exact_for_noninteracting_gas(self):
        """BAOAB samples the exact velocity marginal when forces vanish."""
        md = LennardJonesMD(
            lattice_state(5, density=0.005, temperature=1.0, seed=1), dt=0.002
        )
        rng = np.random.default_rng(0)
        temps = []
        for i in range(3000):
            md.langevin_step(1.0, friction=2.0, rng=rng)
            if i > 1000:
                temps.append(md.state.temperature())
        assert np.mean(temps) == pytest.approx(1.0, rel=0.05)

    def test_descriptor_sorted_and_sized(self, md):
        d = md.descriptor()
        n = md.state.n_atoms
        assert d.shape == (n * (n - 1) // 2,)
        assert (np.diff(d) >= 0).all()

    def test_trajectory_shape(self, md):
        traj = md.sample_trajectory(4, steps_per_frame=3, temperature=0.5, seed=2)
        assert traj.shape == (4, md.state.n_atoms * (md.state.n_atoms - 1) // 2)

    def test_rdf_peak_near_lj_minimum(self):
        md = LennardJonesMD(
            lattice_state(6, density=0.7, temperature=0.5, seed=3), dt=0.002
        )
        rng = np.random.default_rng(1)
        for _ in range(300):
            md.langevin_step(0.7, 1.0, rng)
        r, g = radial_distribution(md, n_bins=40)
        peak_r = r[g.argmax()]
        assert 0.9 < peak_r < 1.4  # LJ minimum at 2^(1/6) ~ 1.12

    def test_cutoff_exceeding_half_box_rejected(self):
        with pytest.raises(ConfigurationError):
            LennardJonesMD(lattice_state(3, density=1.0), cutoff=5.0)

    def test_state_validation(self):
        with pytest.raises(ConfigurationError):
            MDState(np.zeros((4, 2)), np.zeros((3, 2)), box=5.0)


class TestPotentials:
    def test_lj_minimum_location_and_depth(self):
        lj = LennardJonesPotential()
        r_min = 2 ** (1 / 6)
        assert lj.energy(np.array([r_min]))[0] == pytest.approx(-1.0)
        # force vanishes at the minimum
        assert lj.force_over_r(np.array([r_min]))[0] == pytest.approx(0.0, abs=1e-10)

    def test_lj_repulsive_inside_attractive_outside(self):
        lj = LennardJonesPotential()
        assert lj.force_over_r(np.array([0.9]))[0] > 0
        assert lj.force_over_r(np.array([1.5]))[0] < 0

    def test_force_is_negative_energy_gradient(self):
        lj = LennardJonesPotential()
        r = np.linspace(0.95, 2.4, 50)
        h = 1e-6
        numeric = -(lj.energy(r + h) - lj.energy(r - h)) / (2 * h)
        assert np.allclose(lj.force_over_r(r) * r, numeric, rtol=1e-4)


class TestMLPairPotential:
    @pytest.fixture(scope="class")
    def fitted(self):
        pot = MLPairPotential(seed=0)
        pot.fit(LennardJonesPotential(), epochs=300, seed=0)
        return pot

    def test_use_before_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            MLPairPotential().energy(np.array([1.0]))

    def test_rmse_small_vs_reference(self, fitted):
        assert fitted.rmse_against(LennardJonesPotential()) < 1.0

    def test_accurate_near_minimum(self, fitted):
        r = np.linspace(1.0, 2.0, 50)
        err = np.abs(fitted.energy(r) - LennardJonesPotential().energy(r))
        assert err.max() < 0.3

    def test_zero_beyond_cutoff(self, fitted):
        assert fitted.energy(np.array([5.0]))[0] == 0.0

    def test_short_range_wall_repulsive(self, fitted):
        e_wall = fitted.energy(np.array([0.5]))[0]
        e_edge = fitted.energy(np.array([0.8]))[0]
        assert e_wall > e_edge

    def test_runs_md_stably(self, fitted):
        md = LennardJonesMD(
            lattice_state(4, density=0.4, temperature=0.3, seed=5),
            potential=fitted, dt=0.002,
        )
        md.run(50)
        assert np.isfinite(md.total_energy())


class TestMassSpring:
    def test_rest_configuration_zero_energy(self):
        model = MassSpringModel(n_side=4, seed=0)
        assert model.energy() == pytest.approx(0.0)

    def test_forces_restore_after_deformation(self):
        model = MassSpringModel(n_side=4, seed=0)
        model.apply_deformation(1.0)
        e0 = model.energy()
        for _ in range(500):
            model.step(dt=0.005, temperature=0.0)
        assert model.energy() < 0.1 * e0

    def test_descriptor_counts_springs(self):
        model = MassSpringModel(n_side=4)
        # 2 * n * (n-1) springs on an n x n grid
        assert model.descriptor().shape == (2 * 4 * 3,)

    def test_thermal_trajectory_fluctuates(self):
        model = MassSpringModel(n_side=4, seed=1)
        traj = model.sample_trajectory(10, steps_per_frame=10, temperature=0.2)
        assert traj.std() > 0

    def test_deformation_stretches_springs(self):
        model = MassSpringModel(n_side=4, seed=2)
        before = model.descriptor().max()
        model.apply_deformation(2.0)
        assert model.descriptor().max() > before + 1.0


class TestDocking:
    @pytest.fixture
    def setup(self):
        lib = CompoundLibrary.random(500, seed=0)
        return lib, DockingOracle(seed=0)

    def test_library_genome_range(self, setup):
        lib, _ = setup
        assert lib.genomes.min() >= 0
        assert lib.genomes.max() < lib.n_fragments

    def test_features_one_hot(self, setup):
        lib, _ = setup
        feats = lib.features()
        assert feats.shape == (500, 12 * 16)
        assert (feats.sum(axis=1) == 12).all()

    def test_true_affinity_deterministic(self, setup):
        lib, oracle = setup
        a = oracle.true_affinity(lib.genomes)
        b = oracle.true_affinity(lib.genomes)
        assert np.allclose(a, b)

    def test_docking_correlated_but_imperfect(self, setup):
        lib, oracle = setup
        truth = oracle.true_affinity(lib.genomes)
        dock = oracle.docking_score(lib.genomes)
        corr = np.corrcoef(truth, dock)[0, 1]
        assert 0.2 < corr < 0.95

    def test_md_refine_close_to_truth_and_counted(self, setup):
        lib, oracle = setup
        scores = oracle.md_refine(lib.genomes[:50])
        truth = oracle.true_affinity(lib.genomes[:50])
        assert oracle.md_calls == 50
        assert np.abs(scores - truth).mean() < 0.2

    def test_docking_is_free(self, setup):
        lib, oracle = setup
        oracle.docking_score(lib.genomes)
        assert oracle.md_calls == 0

    def test_wrong_genome_length_rejected(self, setup):
        _, oracle = setup
        with pytest.raises(ConfigurationError):
            oracle.true_affinity(np.zeros((3, 5), dtype=int))

    def test_out_of_range_fragment_rejected(self, setup):
        _, oracle = setup
        with pytest.raises(ConfigurationError):
            oracle.true_affinity(np.full((1, 12), 99))
