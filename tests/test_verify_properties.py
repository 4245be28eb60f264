"""Property tests for the differential runners: random inputs, same parity.

The hand-picked grids in :mod:`repro.verify.differential` prove the
equivalent code paths agree *somewhere*; these Hypothesis suites prove
they agree on arbitrary grids — random axis lengths, magnitudes spanning
ten orders, and random DAG seeds — under the shared settings profiles.
"""

from hypothesis import given
from hypothesis import strategies as st
from .hypothesis_settings import (
    QUICK_SETTINGS,
    SLOW_SETTINGS,
    STANDARD_SETTINGS,
)

from repro.verify.differential import (
    checkpoint_replay_parity,
    sweep_bit_parity,
    telemetry_sweep_parity,
    workflow_telemetry_parity,
)

#: Grid axes with magnitudes from single digits to 1e9 — wide enough to
#: surface broadcasting or accumulation-order divergence if it existed.
_axis = st.lists(
    st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    min_size=1, max_size=6, unique=True,
)


@STANDARD_SETTINGS
@given(batches=_axis, min_samples=st.floats(1e3, 1e12),
       critical_batch=st.floats(1.0, 1e7))
def test_sweep_paths_bit_agree_on_random_grids(
    batches, min_samples, critical_batch
):
    from repro.cost.models import ConvergenceCostModel

    result = sweep_bit_parity(
        ConvergenceCostModel(), {"batch": batches},
        min_samples=min_samples, critical_batch=critical_batch,
    )
    assert result.passed, result.message()


@QUICK_SETTINGS
@given(
    sizes=st.lists(st.floats(1e3, 1e11), min_size=1, max_size=4, unique=True),
    ranks=st.lists(st.integers(2, 4096), min_size=1, max_size=4, unique=True),
    compute=st.floats(1e-4, 10.0),
)
def test_crossover_sweep_paths_bit_agree(sizes, ranks, compute):
    from repro.cost.crossover import DataParallelCrossoverModel
    from repro.machine.spec import SUMMIT

    grid = {"message_bytes": sizes, "n_ranks": ranks}
    fixed = {
        "latency": SUMMIT.injection_latency,
        "bandwidth": SUMMIT.interconnect.bandwidth,
        "compute_time": compute,
    }
    model = DataParallelCrossoverModel()
    assert sweep_bit_parity(model, grid, **fixed).passed
    assert telemetry_sweep_parity(model, grid, **fixed).passed


@QUICK_SETTINGS
@given(nodes=st.lists(st.integers(1, 4608), min_size=2, max_size=5,
                      unique=True).map(sorted))
def test_app_telemetry_sweep_parity_on_random_node_grids(nodes):
    from repro.apps.extreme_scale import get_app

    result = telemetry_sweep_parity(
        get_app("kurth").cost_model(), {"n_nodes": nodes}
    )
    assert result.passed, result.message()


@SLOW_SETTINGS
@given(seed=st.integers(0, 2**31 - 1))
def test_dag_telemetry_parity_for_any_seed(seed):
    result = workflow_telemetry_parity(seed=seed)
    assert result.passed, result.message()


@SLOW_SETTINGS
@given(seed=st.integers(0, 2**31 - 1))
def test_checkpoint_replay_parity_for_any_seed(seed):
    result = checkpoint_replay_parity(seed=seed)
    assert result.passed, result.message()
