"""Multi-layer perceptron with manual backpropagation.

This is the workhorse network of the workflow case studies: surrogate
energy models, docking-score regressors, steering policies. It exposes its
parameters as the flat list the :mod:`repro.optim` optimizers expect, so
LARS/LAMB can be exercised on a real model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.activations import get_activation
from repro.ml.losses import mse


class Dense:
    """A fully connected layer ``y = act(x @ W + b)``.

    He-uniform initialisation for relu, Xavier otherwise.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        if n_in < 1 or n_out < 1:
            raise ConfigurationError("layer dimensions must be >= 1")
        rng = rng or np.random.default_rng()
        self.activation_name = activation
        self._act, self._act_grad = get_activation(activation)
        scale = np.sqrt(2.0 / n_in) if activation == "relu" else np.sqrt(1.0 / n_in)
        self.W = rng.normal(0.0, scale, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        # caches for backward
        self._x: np.ndarray | None = None
        self._z: np.ndarray | None = None
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.W.shape[0]:
            raise ConfigurationError(
                f"expected input (batch, {self.W.shape[0]}), got {x.shape}"
            )
        self._x = x
        self._z = x @ self.W + self.b
        return self._act(self._z)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate dW/db and return the gradient w.r.t. the input."""
        if self._x is None or self._z is None:
            raise ConfigurationError("backward called before forward")
        dz = grad_out * self._act_grad(self._z)
        self.dW[...] = self._x.T @ dz
        self.db[...] = dz.sum(axis=0)
        return dz @ self.W.T


class MLP:
    """A stack of Dense layers with a simple fit/predict interface.

    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> x = rng.normal(size=(256, 3))
    >>> y = (x ** 2).sum(axis=1, keepdims=True)
    >>> net = MLP([3, 32, 1], seed=0)
    >>> history = net.fit(x, y, epochs=200, lr=1e-2)
    >>> history[-1] < history[0] * 0.1
    True
    """

    def __init__(
        self,
        layer_sizes: list[int],
        hidden_activation: str = "relu",
        output_activation: str = "identity",
        seed: int | None = None,
    ):
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        self.layers: list[Dense] = []
        for i, (n_in, n_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
            last = i == len(layer_sizes) - 2
            act = output_activation if last else hidden_activation
            self.layers.append(Dense(n_in, n_out, act, rng))

    # -- parameter plumbing (for repro.optim) ------------------------------------

    @property
    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend((layer.W, layer.b))
        return params

    @property
    def gradients(self) -> list[np.ndarray]:
        grads: list[np.ndarray] = []
        for layer in self.layers:
            grads.extend((layer.dW, layer.db))
        return grads

    # -- forward / backward --------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.atleast_2d(np.asarray(x, dtype=float))
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- training -------------------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 100,
        lr: float = 1e-2,
        batch_size: int | None = None,
        optimizer=None,
        loss=mse,
        seed: int | None = None,
    ) -> list[float]:
        """Train; returns the per-epoch mean loss history."""
        from repro.optim.sgd import SGD  # local import avoids package cycle

        if epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError("x and y row counts differ")
        opt = optimizer if optimizer is not None else SGD(lr=lr, momentum=0.9)
        rng = np.random.default_rng(seed)
        n = x.shape[0]
        batch = batch_size or n
        history: list[float] = []
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                pred = self.forward(x[idx])
                value, grad = loss(pred, y[idx])
                self.backward(grad)
                opt.step(self.parameters, self.gradients)
                epoch_loss += value
                n_batches += 1
            history.append(epoch_loss / n_batches)
        return history
