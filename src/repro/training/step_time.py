"""Per-step time decomposition for synchronous distributed training.

One optimizer step consists of ``k`` (accumulation) micro-steps of
forward+backward compute, one hierarchical gradient allreduce, and the
input-pipeline reads feeding the micro-batches. The exposed (critical-path)
time is::

    step = k * compute_micro * (1 + jitter_cv * sqrt(2 ln n_ranks))
         + max(0, comm  - overlap_fraction    * compute_micro)
         + max(0, io    - io_overlap_fraction * k * compute_micro)

The jitter term is the synchronous-SGD straggler penalty: every step waits
for the slowest of ``n_ranks`` ranks, and the expected maximum of n i.i.d.
rank times exceeds the mean by ~``sigma * sqrt(2 ln n)``.

The allreduce is modelled as an intra-node NVLink ring followed by an
inter-node InfiniBand ring over the node count (the NCCL hierarchical
scheme), and model-parallel activation exchange is added to each micro-step.
Every machine number — GPUs per node and their FLOPs, the injection and
intra-node links, the NVMe and shared-filesystem read rates, the node
count — comes from one :class:`~repro.machine.spec.MachineSpec`.

The formulas themselves live in the :mod:`repro.cost` layer:
:func:`step_breakdown` binds the configuration into the step composite from
:func:`repro.cost.step_cost_model` and evaluates it on the scalar path —
bit-identical to the handwritten decomposition it replaced. Use the
composite directly (``step_cost_model(...)`` + :func:`repro.cost.sweep`) to
evaluate whole node-count grids in one vectorized pass; a grid point
(``result.at(i)``) and a :func:`step_breakdown` are read the same way.
"""

from __future__ import annotations

from repro.cost import CostBreakdown, step_cost_model
from repro.machine.gpu import Precision
from repro.machine.spec import MachineSpec
from repro.models.base import ModelSpec
from repro.training.parallelism import DataSource, ParallelismPlan


def step_breakdown(
    model: ModelSpec,
    machine: MachineSpec,
    n_nodes: int,
    plan: ParallelismPlan,
    data_source: DataSource = DataSource.NVME,
    precision: Precision = Precision.MIXED,
) -> CostBreakdown:
    """The step-time decomposition of a job configuration, in seconds.

    The terms are ``compute``, ``straggler``, ``mp_exchange``, ``comm`` and
    ``io`` (total costs), ``comm_exposed`` and ``io_exposed`` (what survives
    overlap) and ``samples`` (consumed per step by the whole job); ``total``
    sums the critical path and ``fraction("comm_exposed")`` is the share of
    it spent in exposed gradient communication.

    >>> from repro.machine import SUMMIT
    >>> from repro.models import resnet50
    >>> b = step_breakdown(resnet50(), SUMMIT, 16, ParallelismPlan(local_batch=32))
    >>> b["samples"]
    3072
    """
    machine.require_nodes(n_nodes)
    return step_cost_model(
        model, machine, plan, data_source=data_source, precision=precision,
    ).evaluate(n_nodes=n_nodes)
