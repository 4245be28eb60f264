"""Distributed-training performance simulator.

Models a synchronous data-parallel (optionally model-parallel and
gradient-accumulating) training step on a registry machine, a
:class:`~repro.machine.spec.MachineSpec`, composing:

- compute time from the model's calibrated sustained FLOP rate;
- gradient allreduce time from the hierarchical (NVLink intra-node +
  InfiniBand inter-node) ring model of :mod:`repro.network.collectives`;
- input-pipeline time from the storage models of :mod:`repro.storage`;
- configurable communication/computation and I/O overlap.

The same machinery reproduces each Section IV-B scaling result and the
Section VI-B communication-bound crossover.
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
from repro.training.step_time import StepBreakdown, step_breakdown

__all__ = [
    "DataSource",
    "GoodputModel",
    "OPTIMIZER_CRITICAL_BATCH_FACTOR",
    "ParallelismPlan",
    "ScalingPoint",
    "ScalingStudy",
    "StepBreakdown",
    "TrainingJob",
    "step_breakdown",
    "steps_to_target",
    "time_to_solution",
]
