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
evaluate whole node-count grids in one vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost import CompositeCostModel, step_cost_model
from repro.machine.gpu import Precision
from repro.machine.spec import MachineSpec
from repro.models.base import ModelSpec
from repro.training.parallelism import DataSource, ParallelismPlan


@dataclass(frozen=True)
class StepBreakdown:
    """Timing decomposition of one optimizer step (seconds).

    ``comm`` / ``io`` are the *total* costs; ``comm_exposed`` /
    ``io_exposed`` are what survives overlap and lands on the critical path.
    """

    compute: float
    comm: float
    comm_exposed: float
    io: float
    io_exposed: float
    mp_exchange: float
    straggler: float
    samples: int  # samples consumed per step by the whole job

    @property
    def total(self) -> float:
        return (
            self.compute
            + self.straggler
            + self.mp_exchange
            + self.comm_exposed
            + self.io_exposed
        )

    @property
    def comm_fraction(self) -> float:
        """Share of the critical path spent in exposed gradient communication."""
        return self.comm_exposed / self.total if self.total else 0.0

    @property
    def io_fraction(self) -> float:
        return self.io_exposed / self.total if self.total else 0.0


def step_cost(
    model: ModelSpec,
    machine: MachineSpec,
    plan: ParallelismPlan,
    data_source: DataSource = DataSource.NVME,
    precision: Precision = Precision.MIXED,
) -> CompositeCostModel:
    """The step-time composite for this configuration on ``machine``, ready
    to evaluate at one node count (``evaluate(n_nodes=...)``) or across a
    whole grid (:func:`repro.cost.sweep` over an ``n_nodes`` axis).

    >>> from repro.machine import SUMMIT
    >>> from repro.models import resnet50
    >>> cost = step_cost(resnet50(), SUMMIT, ParallelismPlan(local_batch=32))
    >>> cost.evaluate(n_nodes=16)["samples"]
    3072
    """
    return step_cost_model(
        model, machine, plan, data_source=data_source, precision=precision,
    )


def step_breakdown(
    model: ModelSpec,
    machine: MachineSpec,
    n_nodes: int,
    plan: ParallelismPlan,
    data_source: DataSource = DataSource.NVME,
    precision: Precision = Precision.MIXED,
) -> StepBreakdown:
    """Compute the step-time decomposition for a job configuration."""
    machine.require_nodes(n_nodes)
    cost = step_cost(
        model, machine, plan, data_source=data_source, precision=precision,
    )
    bd = cost.evaluate(n_nodes=n_nodes)
    return StepBreakdown(
        compute=bd["compute"],
        comm=bd["comm"],
        comm_exposed=bd["comm_exposed"],
        io=bd["io"],
        io_exposed=bd["io_exposed"],
        mp_exchange=bd["mp_exchange"],
        straggler=bd["straggler"],
        samples=bd["samples"],
    )
