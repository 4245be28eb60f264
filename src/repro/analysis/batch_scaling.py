"""Empirical critical-batch experiment on the real ML stack.

The convergence model of :mod:`repro.training.convergence` asserts the
two-regime law ``steps(B) = S_min (1/B + 1/B_crit)``. This module *measures*
it: train the real numpy MLP on a fixed problem at several batch sizes,
record steps to a target loss, and fit the law. It closes the loop between
the analytic scaling story and the runnable ML substrate — and demonstrates
the LARS/LAMB large-batch advantage empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.ml.mlp import MLP
from repro.ml.losses import mse
from repro.optim.base import Optimizer


@dataclass(frozen=True)
class BatchScalingResult:
    """Measured steps-to-target across batch sizes, plus the fitted law."""

    batch_sizes: list[int]
    steps_to_target: list[int]
    fitted_min_samples: float
    fitted_critical_batch: float

    def speedup(self) -> list[float]:
        """Step-count speedup relative to the smallest batch."""
        base = self.steps_to_target[0]
        return [base / s for s in self.steps_to_target]


def _make_problem(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2048, 6))
    y = np.column_stack([
        np.sin(x[:, 0] * x[:, 1]),
        (x[:, 2:4] ** 2).sum(axis=1) * 0.3,
    ])
    return x, y


def steps_to_loss(
    optimizer_factory: Callable[[], Optimizer],
    batch_size: int,
    target_loss: float = 0.08,
    max_steps: int = 8000,
    seed: int = 0,
    lr_rule: str = "sqrt",
    base_batch: int = 16,
) -> int:
    """Steps of minibatch training until the full-data loss <= target.

    ``lr_rule`` rescales the optimizer's learning rate with the batch size
    relative to ``base_batch``: "sqrt" (stable for all batch sizes here),
    "linear" (the Goyal rule; diverges without warmup at large batch), or
    "none".
    """
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    if lr_rule not in ("sqrt", "linear", "none"):
        raise ConfigurationError(f"unknown lr_rule {lr_rule!r}")
    x, y = _make_problem(seed)
    net = MLP([6, 48, 2], seed=seed)
    opt = optimizer_factory()
    ratio = batch_size / base_batch
    if lr_rule == "sqrt":
        opt.lr *= np.sqrt(ratio)
    elif lr_rule == "linear":
        opt.lr *= ratio
    rng = np.random.default_rng(seed + 1)
    n = x.shape[0]
    for step in range(1, max_steps + 1):
        idx = rng.integers(0, n, size=batch_size)
        pred = net.forward(x[idx])
        _, grad = mse(pred, y[idx])
        net.backward(grad)
        opt.step(net.parameters, net.gradients)
        if step % 10 == 0:
            loss, _ = mse(net.forward(x), y)
            if loss <= target_loss:
                return step
    raise ConvergenceError(
        f"did not reach loss {target_loss} in {max_steps} steps at batch "
        f"{batch_size}"
    )


def fit_two_regime_law(
    batch_sizes: list[int], steps: list[int]
) -> tuple[float, float]:
    """Least-squares fit of steps(B) = S_min / B + S_min / B_crit.

    Linear in (a, b) with steps = a * (1/B) + b: a = S_min,
    b = S_min / B_crit.
    """
    if len(batch_sizes) != len(steps) or len(batch_sizes) < 2:
        raise ConfigurationError("need >= 2 congruent measurement points")
    inv_b = np.array([1.0 / b for b in batch_sizes])
    design = np.column_stack([inv_b, np.ones_like(inv_b)])
    coef, *_ = np.linalg.lstsq(design, np.array(steps, dtype=float), rcond=None)
    a, b = float(coef[0]), float(coef[1])
    if a <= 0:
        raise ConvergenceError("fit degenerate: non-positive S_min")
    b = max(b, 1e-9)
    return a, a / b


def run_batch_scaling_experiment(
    optimizer_factory: Callable[[], Optimizer],
    batch_sizes: list[int] | None = None,
    target_loss: float = 0.08,
    seed: int = 0,
    lr_rule: str = "sqrt",
) -> BatchScalingResult:
    """Measure steps-to-target across batch sizes and fit the law."""
    batch_sizes = batch_sizes or [16, 64, 256, 1024]
    steps = [
        steps_to_loss(
            optimizer_factory, b, target_loss=target_loss, seed=seed,
            lr_rule=lr_rule,
        )
        for b in batch_sizes
    ]
    min_samples, critical = fit_two_regime_law(batch_sizes, steps)
    return BatchScalingResult(
        batch_sizes=list(batch_sizes),
        steps_to_target=steps,
        fitted_min_samples=min_samples,
        fitted_critical_batch=critical,
    )
