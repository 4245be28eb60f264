"""repro.cost — the unified composable cost-model layer.

Every bandwidth/latency/FLOP expression in the repository lives exactly once,
in :mod:`repro.cost.kernels`, and is consumed through two interchangeable
paths: scalar ``evaluate(**config)`` (bit-identical to the original
handwritten formulas) and vectorized ``evaluate_batch`` / :func:`sweep`
(NumPy broadcasting over configuration grids). The training, network,
storage, and analysis layers are all thin adapters over this package.
"""

from repro.cost import kernels
from repro.cost.breakdown import CostBreakdown
from repro.cost.crossover import (
    DataParallelCrossoverModel,
    crossover_nodes,
    crossover_sweep,
    machine_crossover_sweep,
)
from repro.cost.kernels import ALLREDUCE_ALGORITHMS
from repro.cost.model import (
    AnalyticCostModel,
    CompositeCostModel,
    compose,
)
from repro.cost.models import (
    STEP_CRITICAL,
    ComputeCostModel,
    ConvergenceCostModel,
    GradientAllreduceModel,
    InputPipelineCostModel,
    LayoutModel,
    MpExchangeCostModel,
    StragglerCostModel,
    step_cost_model,
)
from repro.cost.sweep import SweepResult, sweep, sweep_scalar

__all__ = [
    "kernels",
    "ALLREDUCE_ALGORITHMS",
    "CostBreakdown",
    "AnalyticCostModel",
    "CompositeCostModel",
    "compose",
    "LayoutModel",
    "ComputeCostModel",
    "MpExchangeCostModel",
    "GradientAllreduceModel",
    "InputPipelineCostModel",
    "StragglerCostModel",
    "ConvergenceCostModel",
    "STEP_CRITICAL",
    "step_cost_model",
    "SweepResult",
    "sweep",
    "sweep_scalar",
    "DataParallelCrossoverModel",
    "crossover_sweep",
    "machine_crossover_sweep",
    "crossover_nodes",
]
