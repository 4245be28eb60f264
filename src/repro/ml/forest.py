"""Decision-tree and random-forest regressors.

Glaser et al. (GB/2020/COVID, surrogate-model motif) represent a
binding-affinity scoring function with random forests; the drug-design
workflow of Section V-C uses the same pattern. This is a vectorised CART
implementation: variance-reduction splits over feature thresholds, bootstrap
aggregation with feature subsampling, and ensemble-spread uncertainty.

A tree grows depth-first in pre-order, left subtree before right, with one
``rng.choice`` of candidate features per split attempt. One 2-D numpy pass
scores every threshold of every candidate feature: a stable argsort per
feature row, row-wise cumulative sums, and a matrix of variance-reduction
gains. The fitted tree is five flat pre-order arrays (``feature``,
``threshold``, ``left``, ``right``, ``value``; a leaf has feature -1 and is
its own child), and ``predict`` moves every row down one level per step.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError


def _is_count(value) -> bool:
    """An int >= 1; numpy ints count, bools do not."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= 1
    )


def _check_limits(max_depth: int, min_samples_split: int) -> None:
    if max_depth < 1:
        raise ConfigurationError("max_depth must be >= 1")
    if min_samples_split < 2:
        raise ConfigurationError("min_samples_split must be >= 2")


def _is_constant(y: np.ndarray) -> bool:
    """Exactly ``np.allclose(y, y[0])``, from one min and one max.

    Rounding is monotonic, so ``|y - y0| <= tol`` holds everywhere iff it
    holds at the extremes; a NaN anywhere makes both extremes NaN.
    """
    y0, lo, hi = float(y[0]), float(y.min()), float(y.max())
    if math.isfinite(y0):
        tol = 1e-8 + 1e-5 * abs(y0)  # allclose's default atol + rtol * |b|
        return hi - y0 <= tol and y0 - lo <= tol
    return lo == y0 == hi  # an infinite y0 is close only to itself


class DecisionTreeRegressor:
    """CART regression tree with variance-reduction splitting."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        max_features: int | None = None,
    ):
        _check_limits(max_depth, min_samples_split)
        if max_features is not None and not _is_count(max_features):
            raise ConfigurationError(
                f"max_features must be None or an int >= 1, got {max_features!r}"
            )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        self._depth = 0
        self._n_features = 0

    def fit(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator | None = None
    ) -> "DecisionTreeRegressor":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError("x and y row counts differ")
        if x.shape[0] == 0:
            raise ConfigurationError("cannot fit on empty data")
        rng = rng or np.random.default_rng()
        n, d = x.shape
        n_draw = min(self.max_features or d, d)
        xt = np.ascontiguousarray(x.T)  # one row per feature
        feature: list[int] = []
        threshold: list[float] = []
        right: list[int] = []
        value: list[float] = []
        self._depth = 0
        # (rows of x, depth, parent of a right child); the left child of
        # node i is i + 1, so popping left before right yields pre-order
        stack = [(np.arange(n), 0, -1)]
        while stack:
            rows, depth, parent = stack.pop()
            node = len(value)
            if parent >= 0:
                right[parent] = node
            ys = y[rows]
            mean = ys.sum() / ys.size  # what ys.mean() computes
            feature.append(-1)
            threshold.append(0.0)
            right.append(node)
            value.append(float(mean))
            split = None
            if (
                depth < self.max_depth
                and ys.size >= self.min_samples_split
                and not _is_constant(ys)
            ):
                split = self._best_split(xt, rows, ys, mean, n_draw, rng)
            if split is None:
                self._depth = max(self._depth, depth)
                continue
            feature[node], threshold[node] = split
            go_left = xt[split[0], rows] <= split[1]
            stack.append((rows[~go_left], depth + 1, node))
            stack.append((rows[go_left], depth + 1, -1))
        nodes = np.arange(len(value))
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold)
        self.left = np.where(self.feature >= 0, nodes + 1, nodes)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value)
        self._n_features = d
        return self

    @staticmethod
    def _best_split(
        xt: np.ndarray,
        rows: np.ndarray,
        y: np.ndarray,
        mean: float,
        n_draw: int,
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        """Best ``(feature, threshold)`` over ``n_draw`` sampled features.

        Row ``j`` of every matrix below belongs to ``features[j]``, and
        column ``i`` to a split after the ``i + 1`` smallest values.
        """
        features = rng.choice(xt.shape[0], size=n_draw, replace=False)
        base_sse = float(((y - mean) ** 2).sum())
        cols = xt[features[:, None], rows]
        order = cols.argsort(axis=1, kind="stable")
        xs = cols[np.arange(n_draw)[:, None], order]
        ys = y[order]
        cum = ys.cumsum(axis=1)
        cum2 = (ys * ys).cumsum(axis=1)
        left_n = np.arange(1.0, y.size)
        left_sse = cum2[:, :-1] - cum[:, :-1] ** 2 / left_n
        right_sum = cum[:, -1:] - cum[:, :-1]
        right_sse = (cum2[:, -1:] - cum2[:, :-1]) - right_sum**2 / left_n[::-1]
        gains = base_sse - (left_sse + right_sse)
        # cannot split between equal values
        gains = np.where(xs[:, :-1] < xs[:, 1:], gains, -np.inf)
        # a row's max is its first argmax's value, NaN if the row has one;
        # like a strict `>` scan over the rows, NaN rows never win
        peak = gains.max(axis=1)
        peak[np.isnan(peak)] = -np.inf
        j = int(peak.argmax())
        if not peak[j] > 1e-12:
            return None
        i = int(gains[j].argmax())
        return int(features[j]), float((xs[j, i] + xs[j, i + 1]) / 2.0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.value is None:
            raise ConfigurationError("predict called before fit")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        # the split features index into the fit data's columns
        if x.shape[1] != self._n_features:
            raise ConfigurationError(
                f"x has {x.shape[1]} features; the tree was fit on "
                f"{self._n_features}"
            )
        rows = np.arange(x.shape[0])
        node = np.zeros(x.shape[0], dtype=np.intp)
        for _ in range(self._depth):  # a row at a leaf stays there
            go_left = x[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]

    def depth(self) -> int:
        return self._depth


class RandomForestRegressor:
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
        _check_limits(max_depth, min_samples_split)
        if not (
            max_features is None or _is_count(max_features) or max_features == "sqrt"
        ):
            raise ConfigurationError(f"bad max_features: {max_features!r}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.trees: list[DecisionTreeRegressor] = []

    def _resolve_max_features(self, d: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if self.max_features is None:
            return None
        return min(self.max_features, d)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
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
            tree = DecisionTreeRegressor(
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
