"""Node-object CART trees and forests, kept as a test oracle.

:class:`NodeTreeRegressor` and :class:`NodeForestRegressor` are the
pre-vectorisation :mod:`repro.ml.forest`: a tree is a graph of ``_Node``
objects, each split scores its sampled features one at a time in a Python
loop, and ``predict`` walks every row through the tree on its own. The
production regressors must grow the same trees from the same rng draws and
predict the same bits, so any divergence is a bug in the vectorised split
search or the flat-array prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class _Node:
    """One tree node; leaves carry ``value``, internal nodes a split."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class NodeTreeRegressor:
    """CART regression tree with variance-reduction splitting."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        max_features: int | None = None,
    ):
        if max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ConfigurationError("min_samples_split must be >= 2")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self._root: _Node | None = None

    def fit(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator | None = None
    ) -> "NodeTreeRegressor":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError("x and y row counts differ")
        if x.shape[0] == 0:
            raise ConfigurationError("cannot fit on empty data")
        rng = rng or np.random.default_rng()
        self._root = self._grow(x, y, depth=0, rng=rng)
        return self

    def _grow(
        self, x: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _Node:
        node = _Node(value=float(y.mean()))
        if (
            depth >= self.max_depth
            or y.size < self.min_samples_split
            or np.allclose(y, y[0])
        ):
            return node
        split = self._best_split(x, y, rng)
        if split is None:
            return node
        feature, threshold = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(x[mask], y[mask], depth + 1, rng)
        node.right = self._grow(x[~mask], y[~mask], depth + 1, rng)
        return node

    def _best_split(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float] | None:
        n, d = x.shape
        k = self.max_features or d
        features = rng.choice(d, size=min(k, d), replace=False)
        base_sse = float(((y - y.mean()) ** 2).sum())
        best: tuple[int, float] | None = None
        best_gain = 1e-12
        for feature in features:
            order = np.argsort(x[:, feature], kind="stable")
            xs, ys = x[order, feature], y[order]
            # candidate thresholds between distinct consecutive values
            cum = np.cumsum(ys)
            cum2 = np.cumsum(ys * ys)
            total, total2 = cum[-1], cum2[-1]
            counts = np.arange(1, n)
            left_sse = cum2[:-1] - cum[:-1] ** 2 / counts
            right_n = n - counts
            right_sum = total - cum[:-1]
            right_sse = (total2 - cum2[:-1]) - right_sum**2 / right_n
            gains = base_sse - (left_sse + right_sse)
            valid = xs[:-1] < xs[1:]  # cannot split between equal values
            gains = np.where(valid, gains, -np.inf)
            i = int(np.argmax(gains))
            if gains[i] > best_gain:
                best_gain = float(gains[i])
                best = (int(feature), float((xs[i] + xs[i + 1]) / 2.0))
        return best

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise ConfigurationError("predict called before fit")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def depth(self) -> int:
        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)


class NodeForestRegressor:
    """Bootstrap-aggregated trees with feature subsampling.

    ``predict_with_uncertainty`` returns the ensemble spread, which the
    drug-design workflow uses to decide which compounds to escalate to the
    expensive MD evaluation.
    """

    def __init__(
        self,
        n_trees: int = 32,
        max_depth: int = 8,
        min_samples_split: int = 4,
        max_features: str | int | None = "sqrt",
        seed: int | None = None,
    ):
        if n_trees < 1:
            raise ConfigurationError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.trees: list[NodeTreeRegressor] = []

    def _resolve_max_features(self, d: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if self.max_features is None:
            return None
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, d)
        raise ConfigurationError(f"bad max_features: {self.max_features!r}")

    def fit(self, x: np.ndarray, y: np.ndarray) -> "NodeForestRegressor":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError("x and y row counts differ")
        rng = np.random.default_rng(self.seed)
        k = self._resolve_max_features(x.shape[1])
        self.trees = []
        n = x.shape[0]
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)
            tree = NodeTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=k,
            )
            tree.fit(x[idx], y[idx], rng=rng)
            self.trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        mean, _ = self.predict_with_uncertainty(x)
        return mean

    def predict_with_uncertainty(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean, std) across trees per sample."""
        if not self.trees:
            raise ConfigurationError("predict called before fit")
        preds = np.stack([t.predict(x) for t in self.trees])
        return preds.mean(axis=0), preds.std(axis=0)
