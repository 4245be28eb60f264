"""TrainingJob: a concrete (model, machine, layout) configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cost import CostBreakdown
from repro.errors import CapacityError, ConfigurationError
from repro.machine.gpu import Precision
from repro.machine.spec import MachineSpec
from repro.models.base import ModelSpec
from repro.training.parallelism import DataSource, ParallelismPlan
from repro.training.step_time import step_breakdown

#: Bytes of optimizer state per parameter: FP32 master weights + two moment
#: buffers (Adam/LAMB) on top of the FP16 weight/gradient copies.
_OPTIMIZER_STATE_BYTES_PER_PARAM = 16.0


@dataclass(frozen=True)
class TrainingJob:
    """A distributed training configuration ready to be timed.

    ``machine`` is the registry spec the job runs on; its main partition
    bounds ``n_nodes``.

    >>> from repro.machine import SUMMIT
    >>> from repro.models import resnet50
    >>> from repro.training import ParallelismPlan
    >>> job = TrainingJob(resnet50(), SUMMIT, 16, ParallelismPlan(local_batch=128))
    >>> 0 < job.step_time() < 1
    True
    """

    model: ModelSpec
    machine: MachineSpec
    n_nodes: int
    plan: ParallelismPlan
    data_source: DataSource = DataSource.NVME
    precision: Precision = Precision.MIXED

    def __post_init__(self) -> None:
        self.machine.require_nodes(self.n_nodes)
        self._check_memory()

    def _check_memory(self) -> None:
        gpus = self.machine.gpus
        if gpus is None:
            raise ConfigurationError(f"{self.machine.name} has no GPUs")
        weights = self.model.parameters * (
            2.0 + _OPTIMIZER_STATE_BYTES_PER_PARAM
        ) / self.plan.model_shards
        activations = (
            self.model.activation_bytes_per_sample * self.plan.local_batch
            / self.plan.model_shards
        )
        if weights + activations > gpus.memory_bytes:
            raise CapacityError(
                f"{self.model.name}: replica shard needs "
                f"{(weights + activations) / 1e9:.1f} GB, GPU has "
                f"{gpus.memory_bytes / 1e9:.1f} GB — increase model_shards "
                f"or reduce local_batch"
            )

    # -- timing -------------------------------------------------------------------

    def breakdown(self) -> CostBreakdown:
        return step_breakdown(
            self.model,
            self.machine,
            self.n_nodes,
            self.plan,
            self.data_source,
            self.precision,
        )

    def step_time(self) -> float:
        """Wall-clock seconds per optimizer step."""
        return self.breakdown().total

    def throughput(self) -> float:
        """Global training throughput in samples/s."""
        b = self.breakdown()
        return b["samples"] / b.total

    def sustained_flops(self) -> float:
        """Job-wide sustained FLOP/s including all overheads."""
        return self.throughput() * self.model.effective_flops_per_sample

    @property
    def n_gpus(self) -> int:
        return self.n_nodes * self.machine.gpus_per_node

    def global_batch(self) -> int:
        return self.plan.global_batch(self.n_gpus)

    # -- derived configurations ------------------------------------------------------

    def with_nodes(self, n_nodes: int) -> "TrainingJob":
        """The same configuration on a different node count (weak scaling)."""
        return replace(self, n_nodes=n_nodes)

    def with_plan(self, plan: ParallelismPlan) -> "TrainingJob":
        return replace(self, plan=plan)

    def with_data_source(self, source: DataSource) -> "TrainingJob":
        return replace(self, data_source=source)

    def efficiency_vs(self, baseline: "TrainingJob") -> float:
        """Weak-scaling parallel efficiency relative to ``baseline``:
        per-GPU throughput ratio."""
        mine = self.throughput() / self.n_gpus
        theirs = baseline.throughput() / baseline.n_gpus
        return mine / theirs
