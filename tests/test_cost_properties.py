"""Property suite: the vectorized sweep path is element-wise **bit-identical**
to the scalar evaluate path, for every cost model, over randomized grids.

This is the contract that licenses using :func:`repro.cost.sweep` (NumPy
broadcasting) for paper-figure reproduction: any grid point must give exactly
the float the handwritten scalar formula gives.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.extreme_scale import EXTREME_SCALE_APPS
from repro.cost import (
    ConvergenceCostModel,
    DataParallelCrossoverModel,
    GradientAllreduceModel,
    step_cost_model,
    sweep,
    sweep_scalar,
)
from repro.machine.spec import SUMMIT

from .hypothesis_settings import QUICK_SETTINGS, STANDARD_SETTINGS


def assert_bit_identical(model, grid, **fixed):
    """sweep() and sweep_scalar() agree bitwise on every term of every point."""
    fast = sweep(model, grid, **fixed)
    slow = sweep_scalar(model, grid, **fixed)
    assert fast.shape == slow.shape
    for term in fast.breakdown:
        fast_grid = np.broadcast_to(
            np.asarray(fast.breakdown[term], dtype=float), fast.shape)
        slow_grid = slow.term(term)
        assert np.array_equal(fast_grid, slow_grid), (
            f"{model.name}.{term}: vectorized != scalar"
        )


# Axis strategies: unique sorted values keep grids small but irregular.

def axis(elements, min_size=1, max_size=6):
    return st.lists(elements, min_size=min_size, max_size=max_size,
                    unique=True).map(sorted)


rank_counts = axis(st.integers(min_value=1, max_value=SUMMIT.node_count))
message_sizes = axis(st.floats(min_value=1e3, max_value=4e9,
                               allow_nan=False, allow_infinity=False))
bandwidths = axis(st.floats(min_value=1e9, max_value=1e12,
                            allow_nan=False, allow_infinity=False))
positive = st.floats(min_value=1e-9, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


class TestAllreduceParity:
    @STANDARD_SETTINGS
    @given(
        p=rank_counts,
        size=message_sizes,
        latency=st.floats(min_value=1e-9, max_value=1e-3),
        bandwidth=st.floats(min_value=1e9, max_value=1e12),
        algorithm=st.sampled_from(
            ["ring", "recursive_doubling", "binomial_tree", "best"]),
    )
    def test_allreduce_grid(self, p, size, latency, bandwidth, algorithm):
        # the step composite's allreduce stage, one GPU per node
        assert_bit_identical(
            GradientAllreduceModel(),
            {"nodes_in_ring": p, "message_bytes": size},
            inter_latency=latency, inter_bandwidth=bandwidth,
            allreduce_algorithm=algorithm, replicas_per_node=1,
            intra_latency=0.0, intra_bandwidth=1.0,
            overlap_fraction=0.0, compute_micro=0.0,
        )

    @STANDARD_SETTINGS
    @given(p=rank_counts, size=message_sizes, bandwidth=bandwidths)
    def test_crossover_grid(self, p, size, bandwidth):
        assert_bit_identical(
            DataParallelCrossoverModel(),
            {"n_ranks": p, "message_bytes": size, "bandwidth": bandwidth},
            latency=1e-6, compute_time=0.05,
        )


class TestStepModelParity:
    @STANDARD_SETTINGS
    @given(
        key=st.sampled_from(sorted(EXTREME_SCALE_APPS)),
        data=st.data(),
    )
    def test_step_composite_over_valid_node_counts(self, key, data):
        app = EXTREME_SCALE_APPS[key]
        # node counts must let GPUs divide evenly into model-parallel shards
        span = max(1, app.plan.model_shards // 6)
        multiplier = axis(
            st.integers(min_value=1, max_value=SUMMIT.node_count // span))
        nodes = [m * span for m in data.draw(multiplier)]
        model = step_cost_model(
            app.model_factory(), SUMMIT, app.plan,
            data_source=app.data_source,
        )
        assert_bit_identical(model, {"n_nodes": nodes})


class TestStorageAndAnalysisParity:
    @STANDARD_SETTINGS
    @given(
        batch=axis(st.integers(min_value=1, max_value=1 << 20)),
        min_samples=st.floats(min_value=1e3, max_value=1e10),
        critical_batch=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_convergence_grid(self, batch, min_samples, critical_batch):
        assert_bit_identical(
            ConvergenceCostModel(),
            {"batch": batch},
            min_samples=min_samples, critical_batch=critical_batch,
        )


class TestSweepStructure:
    @QUICK_SETTINGS
    @given(
        batches=axis(st.integers(min_value=1, max_value=1 << 16), max_size=4),
        min_samples=axis(st.floats(min_value=1e3, max_value=1e9), max_size=4),
    )
    def test_multi_axis_shape_and_at(self, batches, min_samples):
        r = sweep(
            ConvergenceCostModel(),
            {"batch": batches, "min_samples": min_samples},
            critical_batch=4096.0,
        )
        assert r.shape == (len(batches), len(min_samples))
        for i in range(len(batches)):
            for j in range(len(min_samples)):
                point = r.at(i, j)
                direct = ConvergenceCostModel().evaluate(
                    batch=batches[i], min_samples=min_samples[j],
                    critical_batch=4096.0,
                )
                for term in direct:
                    assert point[term] == direct[term]
