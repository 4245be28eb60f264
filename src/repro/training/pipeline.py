"""Pipeline-parallel training analysis.

Section VI-B closes: "models larger than BERT-large become communication-
bound for the widely used data-parallel training on Summit. High-performance
interconnect and/or generic model parallelization is essential for good
scaling efficiency on future platforms." This module quantifies the
"generic model parallelization" branch with the standard GPipe-style
pipeline model:

- the model is split into ``stages`` sequential stages across GPUs;
- each optimizer step streams ``micro_batches`` micro-batches through the
  pipeline; the *bubble* (idle) fraction is (s - 1) / (m + s - 1);
- inter-stage traffic per micro-batch is one activation tensor each way, a
  point-to-point transfer instead of a global allreduce;
- data parallelism across pipeline replicas then needs an allreduce of only
  1/s of the parameters per member.

``compare_strategies`` answers the paper's question directly: for a model
past the data-parallel crossover, which layout sustains higher throughput
on Summit-like hardware?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machine.gpu import Precision
from repro.machine.spec import MachineSpec
from repro.models.base import ModelSpec
from repro.network.collectives import allreduce_time


@dataclass(frozen=True)
class PipelinePlan:
    """A pipeline-parallel layout for one model replica."""

    stages: int
    micro_batches: int
    micro_batch_size: int = 1

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ConfigurationError("stages must be >= 1")
        if self.micro_batches < 1:
            raise ConfigurationError("micro_batches must be >= 1")
        if self.micro_batch_size < 1:
            raise ConfigurationError("micro_batch_size must be >= 1")

    @property
    def bubble_fraction(self) -> float:
        """Idle fraction of the pipeline: (s - 1) / (m + s - 1)."""
        s, m = self.stages, self.micro_batches
        return (s - 1) / (m + s - 1)

    @property
    def batch_per_replica(self) -> int:
        return self.micro_batches * self.micro_batch_size


@dataclass(frozen=True)
class PipelineBreakdown:
    """Per-optimizer-step timing of a pipelined replica group."""

    compute: float  # ideal (bubble-free) compute time
    bubble: float  # pipeline fill/drain idle time
    stage_comm: float  # exposed inter-stage activation traffic
    dp_allreduce: float  # data-parallel gradient reduction (per step)
    samples: int

    @property
    def total(self) -> float:
        return self.compute + self.bubble + self.stage_comm + self.dp_allreduce

    @property
    def throughput(self) -> float:
        return self.samples / self.total


def pipeline_step(
    model: ModelSpec,
    machine: MachineSpec,
    n_nodes: int,
    plan: PipelinePlan,
    dp_replicas: int | None = None,
    precision: Precision = Precision.MIXED,
) -> PipelineBreakdown:
    """Time one optimizer step of pipeline (+ data) parallel training.

    Stages live on consecutive GPUs; while a replica fits in one node the
    stage link is the machine's intra-node link, beyond that its fabric.
    ``dp_replicas`` defaults to all GPUs divided by the stage count.
    """
    machine.require_nodes(n_nodes)
    if machine.gpus is None:
        raise ConfigurationError(f"{machine.name} has no GPUs")
    n_gpus = n_nodes * machine.gpus_per_node
    if plan.stages > n_gpus:
        raise ConfigurationError("more stages than GPUs")
    replicas = dp_replicas if dp_replicas is not None else n_gpus // plan.stages
    if replicas < 1 or replicas * plan.stages > n_gpus:
        raise ConfigurationError("replica/stage layout exceeds GPU count")

    link = (
        machine.intra_node_link
        if plan.stages <= machine.gpus_per_node
        else machine.interconnect
    )

    # per-micro-batch compute of one stage (the pipeline's clock period)
    micro_flops = plan.micro_batch_size * model.effective_flops_per_sample
    stage_time = (
        micro_flops / plan.stages / model.sustained_flops(machine.gpus, precision)
    )
    ideal_compute = plan.micro_batches * plan.stages * stage_time / plan.stages
    # total = m * stage_time per stage pipeline; fill/drain adds (s-1) periods
    bubble = (plan.stages - 1) * stage_time

    # inter-stage activations: forward + backward per micro-batch per boundary;
    # transfers overlap with compute of other micro-batches except at the
    # boundaries of the schedule — model the exposed part as one transfer per
    # stage boundary (fill) each way.
    act_bytes = (
        model.activation_bytes_per_sample or model.bytes_per_sample
    ) * plan.micro_batch_size / plan.stages
    stage_comm = 2 * (plan.stages - 1) * link.transfer_time(act_bytes)

    # data-parallel allreduce over replicas, message = params/stages
    if replicas > 1:
        message = model.gradient_bytes / plan.stages
        dp_allreduce = allreduce_time(replicas, message, machine.interconnect, None)
    else:
        dp_allreduce = 0.0

    samples = replicas * plan.batch_per_replica
    return PipelineBreakdown(
        compute=ideal_compute,
        bubble=bubble,
        stage_comm=stage_comm,
        dp_allreduce=dp_allreduce,
        samples=samples,
    )


def compare_strategies(
    model: ModelSpec,
    machine: MachineSpec,
    n_nodes: int,
    local_batch: int,
    stages: int = 6,
) -> dict[str, float]:
    """Throughput of pure data parallelism vs pipeline+data hybrid for the
    same global batch on the same nodes. Returns samples/s per strategy."""
    from repro.training.parallelism import DataSource, ParallelismPlan
    from repro.training.step_time import step_breakdown

    dp = step_breakdown(
        model, machine, n_nodes,
        ParallelismPlan(local_batch=local_batch, overlap_fraction=0.0),
        DataSource.MEMORY,
    )
    pipeline = pipeline_step(
        model, machine, n_nodes,
        PipelinePlan(stages=stages, micro_batches=local_batch,
                     micro_batch_size=1),
    )
    return {
        "data_parallel": dp["samples"] / dp.total,
        "pipeline_hybrid": pipeline.throughput,
    }
