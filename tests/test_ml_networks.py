"""Tests for the MLP, autoencoders and gradient correctness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ml import MLP, Autoencoder, VariationalAutoencoder
from tests.instruments import latent_manifold
from repro.ml.losses import mse
from repro.ml.mlp import Dense


class TestDense:
    def test_forward_shape(self):
        layer = Dense(3, 5, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((7, 3)))
        assert out.shape == (7, 5)

    def test_wrong_input_dim_rejected(self):
        layer = Dense(3, 5)
        with pytest.raises(ConfigurationError):
            layer.forward(np.zeros((7, 4)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ConfigurationError):
            Dense(3, 5).backward(np.zeros((7, 5)))


class TestMLPGradients:
    def test_gradient_matches_finite_difference(self):
        """Backprop gradient check against central differences."""
        rng = np.random.default_rng(0)
        net = MLP([4, 6, 2], hidden_activation="tanh", seed=0)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 2))

        pred = net.forward(x)
        _, grad_out = mse(pred, y)
        net.backward(grad_out)
        analytic = [g.copy() for g in net.gradients]

        eps = 1e-6
        for p_idx, param in enumerate(net.parameters):
            flat = param.ravel()
            for k in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[k]
                flat[k] = orig + eps
                lp, _ = mse(net.forward(x), y)
                flat[k] = orig - eps
                lm, _ = mse(net.forward(x), y)
                flat[k] = orig
                numeric = (lp - lm) / (2 * eps)
                assert analytic[p_idx].ravel()[k] == pytest.approx(
                    numeric, rel=1e-4, abs=1e-7
                )

    def test_parameter_count(self):
        net = MLP([4, 8, 2])
        assert sum(p.size for p in net.parameters) == 4 * 8 + 8 + 8 * 2 + 2

    def test_relu_hidden_by_default(self):
        net = MLP([2, 4, 1])
        assert net.layers[0].activation_name == "relu"
        assert net.layers[-1].activation_name == "identity"


class TestMLPTraining:
    def test_learns_quadratic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 3))
        y = (x**2).sum(axis=1, keepdims=True)
        net = MLP([3, 32, 1], seed=0)
        history = net.fit(x, y, epochs=200, lr=1e-2)
        assert history[-1] < history[0] * 0.1

    def test_custom_optimizer(self):
        from repro.optim import LAMB

        rng = np.random.default_rng(1)
        x = rng.normal(size=(128, 2))
        y = x.sum(axis=1, keepdims=True)
        net = MLP([2, 16, 1], seed=1)
        history = net.fit(x, y, epochs=100, optimizer=LAMB(lr=0.01))
        assert history[-1] < history[0]

    def test_row_mismatch_rejected(self):
        net = MLP([2, 4, 1])
        with pytest.raises(ConfigurationError):
            net.fit(np.zeros((10, 2)), np.zeros((9, 1)))

    def test_too_few_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            MLP([4])


class TestAutoencoder:
    def test_reconstruction_improves(self):
        x = latent_manifold(200, n_features=16, latent_dim=2, seed=0)
        ae = Autoencoder(16, 2, hidden=[12], seed=0)
        history = ae.fit(x, epochs=80, seed=0)
        assert history[-1] < history[0] * 0.5

    def test_encode_shape(self):
        ae = Autoencoder(16, 3, seed=0)
        z = ae.encode(np.zeros((5, 16)))
        assert z.shape == (5, 3)

    def test_outliers_score_higher(self):
        x = latent_manifold(300, n_features=16, latent_dim=2, seed=1)
        ae = Autoencoder(16, 2, hidden=[12], seed=1)
        ae.fit(x, epochs=200, seed=1)
        inlier = float(np.median(ae.reconstruction_error(x)))
        outliers = x + 3.0  # far off the training manifold
        outlier = float(np.median(ae.reconstruction_error(outliers)))
        assert outlier > 3 * inlier

    def test_invalid_latent_dim(self):
        with pytest.raises(ConfigurationError):
            Autoencoder(8, 8)


class TestVariationalAutoencoder:
    def test_elbo_decreases(self):
        x = latent_manifold(200, n_features=20, latent_dim=2, seed=2)
        vae = VariationalAutoencoder(20, 2, hidden=[16], seed=2)
        history = vae.fit(x, epochs=60, seed=2)
        assert history[-1] < history[0]

    def test_encode_returns_mean_only(self):
        vae = VariationalAutoencoder(20, 3, seed=0)
        assert vae.encode(np.zeros((4, 20))).shape == (4, 3)

    def test_latent_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            VariationalAutoencoder(8, 4)

    def test_kl_pulls_latent_toward_prior(self):
        """With a large beta the latent distribution should be near N(0,1)."""
        x = latent_manifold(300, n_features=20, latent_dim=2, seed=4)
        vae = VariationalAutoencoder(20, 2, hidden=[16], beta=10.0, seed=4)
        vae.fit(x, epochs=150, seed=4)
        stats = vae.encoder.forward(x)
        mu = stats[:, :2]
        log_var = np.clip(stats[:, 2:], -10.0, 10.0)
        assert abs(float(mu.mean())) < 0.5
        assert abs(float(np.exp(log_var).mean()) - 1.0) < 0.5
