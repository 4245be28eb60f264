"""Tests for the alloy lattice model, Monte Carlo and cluster expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.science.cluster_expansion import ClusterExpansion, bic_select, bic_score
from repro.science.ising import (
    AlloyLattice,
    MonteCarlo,
    estimate_critical_temperature,
    exact_critical_temperature,
)
from .oracles import ScalarMonteCarlo


class TestAlloyLattice:
    def test_spins_are_binary(self):
        lat = AlloyLattice(8, seed=0)
        assert set(np.unique(lat.spins)) <= {-1, 1}

    def test_odd_size_rejected(self):
        with pytest.raises(ConfigurationError):
            AlloyLattice(7)

    def test_checkerboard_is_ground_state(self):
        lat = AlloyLattice(8, seed=0)
        lat.spins = lat._stagger.copy()
        # every bond is unlike: energy = -j * 2N
        assert lat.energy_per_site() == pytest.approx(-2.0)
        assert lat.order_parameter() == pytest.approx(1.0)

    def test_uniform_state_is_highest_energy(self):
        lat = AlloyLattice(8, seed=0)
        lat.spins = np.ones_like(lat.spins)
        assert lat.energy_per_site() == pytest.approx(2.0)
        assert lat.order_parameter() == pytest.approx(0.0)

    def test_energy_translation_invariant(self):
        lat = AlloyLattice(8, seed=1)
        e = lat.energy()
        lat.spins = np.roll(lat.spins, 3, axis=0)
        assert lat.energy() == pytest.approx(e)

    def test_correlations_shape_and_range(self):
        lat = AlloyLattice(10, seed=2)
        corr = lat.correlations()
        assert corr.shape == (4,)
        assert (np.abs(corr) <= 1.0 + 1e-12).all()

    def test_energy_consistent_with_nn_correlation(self):
        lat = AlloyLattice(12, seed=3)
        # E/site = 2 j <s s>_nn by construction
        assert lat.energy_per_site() == pytest.approx(2 * lat.correlations()[1])

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_order_parameter_bounded(self, seed):
        lat = AlloyLattice(6, seed=seed)
        assert 0.0 <= lat.order_parameter() <= 1.0


class TestMonteCarlo:
    def test_sweep_returns_acceptance_rate(self):
        mc = MonteCarlo(AlloyLattice(8, seed=0), seed=0)
        rate = mc.sweep(2.0)
        assert 0.0 <= rate <= 1.0

    def test_high_temperature_accepts_more(self):
        mc_hot = MonteCarlo(AlloyLattice(12, seed=0), seed=0)
        mc_cold = MonteCarlo(AlloyLattice(12, seed=0), seed=0)
        hot = np.mean([mc_hot.sweep(10.0) for _ in range(20)])
        cold = np.mean([mc_cold.sweep(0.5) for _ in range(20)])
        assert hot > cold

    def test_disordered_above_tc_ordered_below(self):
        lat = AlloyLattice(16, seed=0)
        mc = MonteCarlo(lat, seed=0)
        hot = mc.run(2 * exact_critical_temperature(), n_sweeps=80, n_warmup=80)
        cold = mc.run(0.5 * exact_critical_temperature(), n_sweeps=80, n_warmup=200)
        assert hot.order_parameter < 0.35
        assert cold.order_parameter > 0.9

    def test_energy_decreases_on_cooling(self):
        lat = AlloyLattice(12, seed=1)
        mc = MonteCarlo(lat, seed=1)
        results = mc.temperature_sweep([4.0, 2.0, 1.0], n_sweeps=60, n_warmup=60)
        energies = [r.energy_per_site for r in results]
        assert energies[0] > energies[-1]

    def test_specific_heat_peaks_near_tc(self):
        lat = AlloyLattice(16, seed=2)
        mc = MonteCarlo(lat, seed=2)
        temps = list(np.linspace(3.2, 1.4, 10))
        results = mc.temperature_sweep(temps, n_sweeps=150, n_warmup=120)
        tc = estimate_critical_temperature(results)
        assert abs(tc - exact_critical_temperature()) < 0.35

    def test_surrogate_energy_model_used_for_measurement(self):
        lat = AlloyLattice(8, seed=3)
        mc = MonteCarlo(lat, seed=3)
        calls = []

        def model(lattice):
            calls.append(1)
            return lattice.energy()

        result = mc.run(2.0, n_sweeps=5, n_warmup=2, energy_model=model)
        assert len(calls) == 5
        assert np.isfinite(result.energy_per_site)

    def test_invalid_temperature_rejected(self):
        mc = MonteCarlo(AlloyLattice(8, seed=0))
        with pytest.raises(ConfigurationError):
            mc.sweep(0.0)

    def test_empty_temperature_sweep_rejected(self):
        mc = MonteCarlo(AlloyLattice(8, seed=0))
        with pytest.raises(ConfigurationError):
            mc.temperature_sweep([])

    def test_estimate_requires_results(self):
        with pytest.raises(ConfigurationError):
            estimate_critical_temperature([])


class TestScalarReferenceParity:
    """The vectorised checkerboard sweep vs the site-by-site reference.

    Both paths draw one full-lattice uniform array per colour, so for the
    same seed they must agree on every spin — asserted here at the spin and
    observable level, across temperatures spanning the transition.
    """

    @pytest.mark.parametrize("temperature", [1.5, 2.27, 4.0])
    def test_sweep_trajectories_bit_identical(self, temperature):
        fast = MonteCarlo(AlloyLattice(8, seed=4), seed=9)
        ref = ScalarMonteCarlo(AlloyLattice(8, seed=4), seed=9)
        for _ in range(25):
            acc_fast = fast.sweep(temperature)
            acc_ref = ref.sweep(temperature)
            assert acc_fast == acc_ref
            assert np.array_equal(fast.lattice.spins, ref.lattice.spins)

    def test_run_observables_identical(self):
        fast = MonteCarlo(AlloyLattice(8, seed=5), seed=6)
        ref = ScalarMonteCarlo(AlloyLattice(8, seed=5), seed=6)
        a = fast.run(2.0, n_sweeps=30, n_warmup=10)
        b = ref.run(2.0, n_sweeps=30, n_warmup=10)
        assert a.energy_per_site == b.energy_per_site
        assert a.order_parameter == b.order_parameter
        assert a.specific_heat == b.specific_heat
        assert a.susceptibility == b.susceptibility
        assert a.acceptance_rate == b.acceptance_rate

    def test_scalar_temperature_validated(self):
        mc = ScalarMonteCarlo(AlloyLattice(8, seed=0))
        with pytest.raises(ConfigurationError):
            mc.sweep(0.0)


class TestExactTc:
    def test_onsager_value(self):
        assert exact_critical_temperature() == pytest.approx(2.26918, rel=1e-4)

    def test_scales_with_coupling(self):
        assert exact_critical_temperature(2.0) == pytest.approx(
            2 * exact_critical_temperature(1.0)
        )


def _training_data(n=40, size=10, seed=0):
    rng = np.random.default_rng(seed)
    feats, energies = [], []
    for i in range(n):
        lat = AlloyLattice(size, seed=seed + i)
        mc = MonteCarlo(lat, seed=seed + i)
        mc.run(rng.uniform(1.0, 5.0), n_sweeps=3, n_warmup=15)
        feats.append(lat.correlations())
        energies.append(lat.energy_per_site())
    return np.array(feats), np.array(energies)


class TestClusterExpansion:
    def test_bic_selects_only_the_true_term(self):
        feats, energies = _training_data()
        assert bic_select(feats, energies) == (1,)

    def test_fit_recovers_coupling(self):
        feats, energies = _training_data()
        ce = ClusterExpansion.fit(feats, energies)
        # E/site = 2 j <ss>_nn with j = 1
        assert ce.coefficients[-1] == pytest.approx(2.0, abs=1e-6)
        assert ce.training_rmse < 1e-10

    def test_callable_returns_total_energy(self):
        feats, energies = _training_data()
        ce = ClusterExpansion.fit(feats, energies)
        lat = AlloyLattice(8, seed=99)
        assert ce(lat) == pytest.approx(lat.energy(), abs=1e-6)

    def test_validation_passes_below_tolerance(self):
        """The fit generalises: hold-out RMSE stays below 1e-6."""
        feats, energies = _training_data(seed=1)
        ce = ClusterExpansion.fit(feats, energies)
        vf, ve = _training_data(n=10, seed=50)
        pred = ce.predict_per_site(vf)
        assert np.sqrt(np.mean((pred - np.asarray(ve)) ** 2)) < 1e-6

    def test_no_selection_keeps_all_terms(self):
        feats, energies = _training_data(seed=3)
        ce = ClusterExpansion.fit(feats, energies, select=False)
        assert ce.terms == (0, 1, 2, 3)

    def test_bic_penalises_extra_parameters(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        pred = y + 0.1
        assert bic_score(y, pred, n_params=2) < bic_score(y, pred, n_params=5)

    def test_too_few_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterExpansion.fit(np.zeros((1, 4)), np.zeros(1))
