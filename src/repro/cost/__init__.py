"""repro.cost — the unified composable cost-model layer.

Every bandwidth/latency/FLOP expression in the repository lives exactly once,
in :mod:`repro.cost.kernels`, and is consumed through two interchangeable
paths: scalar ``evaluate(**config)`` (bit-identical to the original
handwritten formulas) and vectorized ``evaluate_batch`` / :func:`sweep`
(NumPy broadcasting over configuration grids). The training, network,
storage, and analysis layers are all thin adapters over this package.

Both paths return one result type, :class:`CostBreakdown`: named terms read
by key (``b["comm_exposed"]``), a critical-path ``total`` and a
``fraction(term)`` of it. :func:`compose` wires stages into a composite;
:func:`step_cost_model` is the Section IV-B step-time composite whose
scalar evaluation is :func:`repro.training.step_time.step_breakdown`;
:func:`crossover_sweep` maps the Section VI-B comm-vs-compute surface for
a given injection bandwidth and latency.
"""

from repro.cost import kernels
from repro.cost.breakdown import CostBreakdown
from repro.cost.crossover import (
    DataParallelCrossoverModel,
    crossover_nodes,
    crossover_sweep,
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
    "crossover_nodes",
]
