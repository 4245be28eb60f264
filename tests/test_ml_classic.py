"""Tests for the classic ML components: forests, PCA, k-means, GA, surrogate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ConvergenceError
from repro.ml import (
    DecisionTreeRegressor,
    EnsembleSurrogate,
    GeneticAlgorithm,
    KMeans,
    PCA,
    RandomForestRegressor,
)
from repro.ml.data import gaussian_blobs, regression_friedman


class TestDecisionTree:
    def test_fits_constant(self):
        tree = DecisionTreeRegressor().fit(np.zeros((10, 2)), np.full(10, 3.0))
        assert tree.predict(np.zeros((1, 2)))[0] == pytest.approx(3.0)

    def test_fits_step_function_exactly(self):
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (x.ravel() > 0.5).astype(float)
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        assert tree.predict([[0.2]])[0] == pytest.approx(0.0)
        assert tree.predict([[0.8]])[0] == pytest.approx(1.0)

    def test_depth_respects_limit(self):
        x, y = regression_friedman(200, seed=0)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert tree.depth() <= 3

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("max_features", [0, -1, True, 1.5, "sqrt"])
    def test_bad_max_features_rejected(self, max_features):
        with pytest.raises(ConfigurationError):
            DecisionTreeRegressor(max_features=max_features)

    @pytest.mark.parametrize("n_columns", [2, 4])
    def test_predict_with_other_column_count_rejected(self, n_columns):
        x, y = regression_friedman(50, seed=8)
        tree = DecisionTreeRegressor(max_depth=3).fit(x[:, :3], y)
        with pytest.raises(ConfigurationError):
            tree.predict(np.zeros((2, n_columns)))

    def test_reduces_friedman_error(self):
        x, y = regression_friedman(400, seed=1)
        tree = DecisionTreeRegressor(max_depth=8).fit(x, y)
        pred = tree.predict(x)
        baseline = float(((y.ravel() - y.mean()) ** 2).mean())
        assert float(((pred - y.ravel()) ** 2).mean()) < 0.3 * baseline


class TestRandomForest:
    def test_beats_single_tree_out_of_sample(self):
        x, y = regression_friedman(400, seed=2)
        xt, yt = regression_friedman(200, seed=3)
        tree = DecisionTreeRegressor(max_depth=8).fit(x, y)
        forest = RandomForestRegressor(n_trees=32, seed=0).fit(x, y)
        err_tree = float(((tree.predict(xt) - yt.ravel()) ** 2).mean())
        err_forest = float(((forest.predict(xt) - yt.ravel()) ** 2).mean())
        assert err_forest < err_tree

    def test_uncertainty_shapes(self):
        x, y = regression_friedman(100, seed=4)
        forest = RandomForestRegressor(n_trees=8, seed=0).fit(x, y)
        mean, std = forest.predict_with_uncertainty(x[:5])
        assert mean.shape == (5,)
        assert std.shape == (5,)
        assert (std >= 0).all()

    def test_uncertainty_higher_off_distribution(self):
        x, y = regression_friedman(300, seed=5)
        forest = RandomForestRegressor(n_trees=16, seed=0).fit(x, y)
        _, std_in = forest.predict_with_uncertainty(x[:50])
        _, std_out = forest.predict_with_uncertainty(x[:50] + 5.0)
        assert std_out.mean() >= std_in.mean() * 0.5  # trees extrapolate flat

    def test_deterministic_given_seed(self):
        x, y = regression_friedman(100, seed=6)
        f1 = RandomForestRegressor(n_trees=4, seed=42).fit(x, y)
        f2 = RandomForestRegressor(n_trees=4, seed=42).fit(x, y)
        assert np.array_equal(f1.predict(x), f2.predict(x))

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomForestRegressor().predict(np.zeros((1, 3)))

    def test_bad_max_features_rejected(self):
        for max_features in (0, -1, True, False, 2.0, "log2"):
            with pytest.raises(ConfigurationError):
                RandomForestRegressor(max_features=max_features)

    @pytest.mark.parametrize("kwargs", [{"max_depth": 0}, {"min_samples_split": 1}])
    def test_bad_tree_limits_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RandomForestRegressor(**kwargs)

    @pytest.mark.parametrize("n_columns", [2, 4])
    def test_predict_with_other_column_count_rejected(self, n_columns):
        x, y = regression_friedman(50, seed=8)
        forest = RandomForestRegressor(n_trees=2, seed=0).fit(x[:, :3], y)
        with pytest.raises(ConfigurationError):
            forest.predict_with_uncertainty(np.zeros((2, n_columns)))


class TestPCA:
    def test_recovers_dominant_direction(self):
        rng = np.random.default_rng(0)
        direction = np.array([3.0, 4.0]) / 5.0
        x = rng.normal(size=(500, 1)) * 5 @ direction[None, :]
        x += rng.normal(scale=0.1, size=x.shape)
        pca = PCA(1).fit(x)
        found = pca.components_[0]
        assert abs(abs(found @ direction) - 1.0) < 0.01

    def test_explained_variance_ratio_sums_below_one(self):
        x, _ = regression_friedman(200, seed=8)
        pca = PCA(3).fit(x)
        assert 0 < pca.explained_variance_ratio_.sum() <= 1.0

    def test_transform_inverse_roundtrip_full_rank(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 4))
        pca = PCA(4).fit(x)
        recon = pca.inverse_transform(pca.transform(x))
        assert np.allclose(recon, x, atol=1e-8)

    def test_too_many_components_rejected(self):
        with pytest.raises(ConfigurationError):
            PCA(10).fit(np.zeros((5, 3)))

    def test_transform_before_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            PCA(2).transform(np.zeros((3, 4)))


class TestKMeans:
    def test_recovers_separated_blobs(self):
        x, labels = gaussian_blobs(300, centers=3, spread=0.15, seed=0)
        km = KMeans(3, seed=0).fit(x)
        pred = km.predict(x)
        # cluster purity: each predicted cluster should be dominated by one
        # true label
        purity = 0
        for k in range(3):
            members = labels[pred == k]
            if members.size:
                purity += np.bincount(members).max()
        assert purity / len(labels) > 0.95

    def test_inertia_decreases_with_more_clusters(self):
        x, _ = gaussian_blobs(200, centers=4, seed=1)
        i2 = KMeans(2, seed=0).fit(x).inertia_
        i8 = KMeans(8, seed=0).fit(x).inertia_
        assert i8 < i2

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ConvergenceError):
            KMeans(2).predict(np.zeros((3, 2)))

    def test_more_clusters_than_points_rejected(self):
        with pytest.raises(ConfigurationError):
            KMeans(10).fit(np.zeros((3, 2)))

    def test_deterministic_given_seed(self):
        x, _ = gaussian_blobs(100, seed=2)
        a = KMeans(3, seed=5).fit_predict(x)
        b = KMeans(3, seed=5).fit_predict(x)
        assert (a == b).all()


class TestGeneticAlgorithm:
    def test_maximises_onemax(self):
        ga = GeneticAlgorithm(genome_length=20, n_alleles=2, population=32, seed=0)
        result = ga.run(lambda pop: pop.sum(axis=1).astype(float), generations=40)
        assert result.best_fitness >= 18

    def test_history_nondecreasing_best(self):
        ga = GeneticAlgorithm(genome_length=12, n_alleles=4, population=24, seed=1)
        result = ga.run(lambda pop: -np.abs(pop - 2).sum(axis=1).astype(float),
                        generations=20)
        best_so_far = np.maximum.accumulate(result.history)
        assert result.best_fitness == pytest.approx(best_so_far[-1])

    def test_evaluation_count(self):
        ga = GeneticAlgorithm(genome_length=8, n_alleles=2, population=16, seed=2)
        result = ga.run(lambda pop: pop.sum(axis=1).astype(float), generations=5)
        assert result.evaluations == 16 * 5

    def test_elitism_preserves_best(self):
        ga = GeneticAlgorithm(genome_length=10, n_alleles=2, population=16,
                              elitism=2, mutation_rate=0.5, seed=3)
        result = ga.run(lambda pop: pop.sum(axis=1).astype(float), generations=30)
        assert result.history[-1] >= max(result.history[:5])

    def test_bad_fitness_shape_rejected(self):
        ga = GeneticAlgorithm(genome_length=4, n_alleles=2, population=8, seed=4)
        with pytest.raises(ConfigurationError):
            ga.run(lambda pop: np.zeros(3), generations=1)

    def test_invalid_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            GeneticAlgorithm(genome_length=0, n_alleles=2)
        with pytest.raises(ConfigurationError):
            GeneticAlgorithm(genome_length=4, n_alleles=2, population=2)
        with pytest.raises(ConfigurationError):
            GeneticAlgorithm(genome_length=4, n_alleles=2, mutation_rate=2.0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_deterministic_given_seed(self, seed):
        def fitness(pop):
            return pop.sum(axis=1).astype(float)

        r1 = GeneticAlgorithm(6, 3, population=12, seed=seed).run(fitness, 5)
        r2 = GeneticAlgorithm(6, 3, population=12, seed=seed).run(fitness, 5)
        assert (r1.best_genome == r2.best_genome).all()
        assert r1.history == r2.history


class TestEnsembleSurrogate:
    def test_fit_predict_shapes(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 2))
        y = (x**2).sum(axis=1, keepdims=True)
        s = EnsembleSurrogate(2, n_members=3, seed=0).fit(x, y, epochs=100)
        mean, std = s.predict(x[:7])
        assert mean.shape == (7, 1)
        assert std.shape == (7, 1)

    def test_acquisition_higher_outside_training_region(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(200, 2))
        y = (x**2).sum(axis=1, keepdims=True)
        s = EnsembleSurrogate(2, n_members=4, seed=1).fit(x, y, epochs=150)
        inside = s.acquisition(x[:50]).mean()
        outside = s.acquisition(x[:50] * 4.0).mean()
        assert outside > inside

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            EnsembleSurrogate(2).predict(np.zeros((1, 2)))
