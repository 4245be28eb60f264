"""Distributed-training performance simulator.

Models a synchronous data-parallel (optionally model-parallel and
gradient-accumulating) training step on a registry machine, a
:class:`~repro.machine.spec.MachineSpec`, composing:

- compute time from the model's calibrated sustained FLOP rate;
- gradient allreduce time from the hierarchical (NVLink intra-node +
  InfiniBand inter-node) allreduce kernels of :mod:`repro.cost.kernels`;
- input-pipeline time from the storage rates of the machine's tiers;
- configurable communication/computation and I/O overlap.

:func:`step_breakdown` (and ``TrainingJob.breakdown()``) returns the step
composite's :class:`~repro.cost.CostBreakdown`: terms read by key
(``b["samples"]``, ``b["comm_exposed"]``), the critical-path ``b.total``
and shares such as ``b.fraction("comm_exposed")``. The same machinery
reproduces each Section IV-B scaling result and the Section VI-B
communication-bound crossover.
"""

from repro.training.convergence import (
    OPTIMIZER_CRITICAL_BATCH_FACTOR,
    steps_to_target,
    time_to_solution,
)
from repro.training.goodput import GoodputModel
from repro.training.job import TrainingJob
from repro.training.parallelism import DataSource, ParallelismPlan
from repro.training.scaling import ScalingPoint, ScalingStudy
from repro.training.step_time import step_breakdown

__all__ = [
    "DataSource",
    "GoodputModel",
    "OPTIMIZER_CRITICAL_BATCH_FACTOR",
    "ParallelismPlan",
    "ScalingPoint",
    "ScalingStudy",
    "TrainingJob",
    "step_breakdown",
    "steps_to_target",
    "time_to_solution",
]
