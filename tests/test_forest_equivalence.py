"""Differential testing: the vectorised forest against the node-object oracle.

The production :class:`~repro.ml.forest.DecisionTreeRegressor` scores all
sampled features of a node in one 2-D numpy pass and stores the fitted
tree as flat pre-order arrays; the oracle
(:class:`tests.oracles.NodeTreeRegressor`) loops over the features in
Python and keeps a graph of node objects. Given the same data and rng they
must grow the same tree (every node's feature, threshold and value, bit
for bit), leave the rng in the same state, and predict the same bits.

Hypothesis draws small fits that reach every branch of the split search:
sizes on both sides of ``min_samples_split``, feature values from a small
set (so ties are common), constant targets and targets within the stop
test's tolerance of constant, targets holding ``inf`` or ``nan``, and ``max_features`` of ``None``, an int or ``"sqrt"``. Forests
of up to ten trees also pin the order in which ``predict_with_uncertainty``
sums the trees (numpy sums eight or more values pairwise).
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from .hypothesis_settings import STANDARD_SETTINGS
from .oracles import NodeForestRegressor, NodeTreeRegressor
from repro.ml.forest import DecisionTreeRegressor, RandomForestRegressor

# A split at an infinite threshold can leave a child with no rows, and the
# oracle's ``y.mean()`` of it warns.
pytestmark = pytest.mark.filterwarnings(
    "ignore:Mean of empty slice:RuntimeWarning"
)

# Few distinct values, so equal values (no split between them) are common.
X_VALUES = st.sampled_from([0.0, 0.0, 1.0, 1.0, -0.5, 2.5, 3.0, np.inf, np.nan])
Y_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -2.0, 1e-9]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)
# np.allclose(y, y[0]) stops a node at rtol 1e-5, atol 1e-8: step across both.
RTOL_STEPS = st.sampled_from([0.0, 5e-6, 1e-5, 1.5e-5, 2e-5])
ATOL_STEPS = st.sampled_from([0.0, 5e-9, 1e-8, 2e-8])


@st.composite
def fits(draw, forest: bool = False):
    """``(x, y, x_query, regressor kwargs)`` for one small fit."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 5))
    x = np.array(draw(st.lists(X_VALUES, min_size=n * d, max_size=n * d)))
    kind = draw(st.sampled_from(["constant", "near-constant", "any"]))
    if kind == "constant":
        y = np.full(n, draw(Y_VALUES))
    elif kind == "near-constant":  # steps around the stop test's rtol, atol
        y0 = draw(st.sampled_from([0.0, 1.0, -2.0, 1e3]))
        rel = draw(st.lists(RTOL_STEPS, min_size=n, max_size=n))
        atol = draw(st.lists(ATOL_STEPS, min_size=n, max_size=n))
        y = y0 + abs(y0) * np.array(rel) + np.array(atol)
    else:
        y = np.array(draw(st.lists(Y_VALUES, min_size=n, max_size=n)))
    m = draw(st.integers(1, 6))
    x_query = np.array(draw(st.lists(X_VALUES, min_size=m * d, max_size=m * d)))
    choices = [st.none(), st.integers(1, d + 1)]
    if forest:
        choices.append(st.just("sqrt"))
    kwargs = {
        "max_depth": draw(st.integers(1, 6)),
        "min_samples_split": draw(st.integers(2, 6)),
        "max_features": draw(st.one_of(*choices)),
    }
    return x.reshape(n, d), y, x_query.reshape(m, d), kwargs


def _preorder(node):
    """The oracle's nodes as ``(feature, threshold, value)``, pre-order."""
    if node is None:
        return []
    return [(node.feature, node.threshold, node.value),
            *_preorder(node.left), *_preorder(node.right)]


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


def _assert_same_tree(tree: DecisionTreeRegressor, oracle: NodeTreeRegressor):
    feature, threshold, value = zip(*_preorder(oracle._root))
    assert tree.feature.tolist() == list(feature)
    _assert_same_bits(tree.threshold, np.array(threshold))
    _assert_same_bits(tree.value, np.array(value))
    assert tree.depth() == oracle.depth()


@STANDARD_SETTINGS
@given(fit=fits(), seed=st.integers(0, 2**32 - 1))
def test_tree_matches_oracle(fit, seed):
    x, y, x_query, kwargs = fit
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        tree = DecisionTreeRegressor(**kwargs).fit(x, y, rng=rng)
        oracle = NodeTreeRegressor(**kwargs).fit(x, y, rng=oracle_rng)
        _assert_same_tree(tree, oracle)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        for rows in (x, x_query):
            _assert_same_bits(tree.predict(rows), oracle.predict(rows))


@STANDARD_SETTINGS
@given(fit=fits(forest=True), n_trees=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1))
def test_forest_matches_oracle(fit, n_trees, seed):
    x, y, x_query, kwargs = fit
    with np.errstate(all="ignore"):
        forest = RandomForestRegressor(n_trees=n_trees, seed=seed, **kwargs)
        oracle = NodeForestRegressor(n_trees=n_trees, seed=seed, **kwargs)
        forest.fit(x, y)
        oracle.fit(x, y)
        for tree, oracle_tree in zip(forest.trees, oracle.trees, strict=True):
            _assert_same_tree(tree, oracle_tree)
        for rows in (x, x_query):
            _assert_same_bits(forest.predict(rows), oracle.predict(rows))
            got = forest.predict_with_uncertainty(rows)
            want = oracle.predict_with_uncertainty(rows)
            for g, w in zip(got, want, strict=True):
                _assert_same_bits(g, w)


def test_nan_gains_never_win():
    """A feature whose gains hold a NaN loses to one without.

    The three large targets' squares sum to just past the largest float in
    one order and just below it in the other. Sorted by feature 0, the
    running sum of squares overflows before the last row, so that feature's
    gains hold ``inf - inf``; feature 1 sums in the other order. Like the
    oracle's strict ``>`` scan, the tree must split on feature 1, where a
    plain argmax over the per-feature maxima would stop at the NaN.
    """
    x = np.array([[0.0, 2.0], [1.0, 0.0], [2.0, 1.0], [3.0, 3.0]])
    y = np.array([7.665630171271405e153, 7.79324849112816e153,
                  7.763549801415185e153, 0.0])
    kwargs = {"max_depth": 1, "min_samples_split": 2}
    with np.errstate(all="ignore"):
        tree = DecisionTreeRegressor(**kwargs).fit(
            x, y, rng=np.random.default_rng(0))
        oracle = NodeTreeRegressor(**kwargs).fit(
            x, y, rng=np.random.default_rng(0))
    _assert_same_tree(tree, oracle)
    assert tree.feature[0] == 1
