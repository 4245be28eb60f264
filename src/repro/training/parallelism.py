"""Parallelisation plans and data-source selection."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.network.collectives import AllreduceAlgorithm


class DataSource(enum.Enum):
    """Where the input pipeline reads training samples from.

    ``MEMORY`` models the in-memory synthetic-data configuration the paper
    uses to *estimate* required read bandwidth (no I/O cost at all).
    """

    SHARED_FS = "shared_fs"
    NVME = "nvme"
    MEMORY = "memory"


@dataclass(frozen=True)
class ParallelismPlan:
    """How a model is laid out across GPUs.

    Parameters
    ----------
    local_batch:
        Per-replica micro-batch size (samples per optimizer *micro*-step).
    model_shards:
        GPUs per model replica. 1 = pure data parallelism. Up to the node's
        GPU count the shards communicate over NVLink (the scheme Yang et al.
        use for the batch-size-limited PI-GAN); beyond that the activation
        exchange crosses the fabric.
    accumulation_steps:
        Gradient-accumulation factor: micro-steps per allreduce. Blanchard
        et al. use this to reach a 5.8 M global batch.
    overlap_fraction:
        Fraction of compute that gradient communication can hide under
        (backward-pass overlap). 0 = fully exposed, 1 = perfectly hidden up
        to the compute time.
    io_overlap_fraction:
        Same for the input pipeline (double-buffered prefetch ~= 1.0).
    compute_jitter_cv:
        Coefficient of variation of per-rank compute time. Synchronous SGD
        waits for the slowest rank each step; the expected maximum of ``n``
        i.i.d. rank times exceeds the mean by ~``cv * sqrt(2 ln n)``, which
        is the dominant efficiency loss once communication is overlapped
        (the residual ~9 % Kurth et al. observe at 4 560 nodes).
    """

    local_batch: int
    model_shards: int = 1
    accumulation_steps: int = 1
    overlap_fraction: float = 0.7
    io_overlap_fraction: float = 1.0
    compute_jitter_cv: float = 0.0
    #: None = tuned library behaviour (pick the fastest algorithm per
    #: message size, as NCCL/MPI do); a specific value pins the algorithm
    #: (the ablation tests pin RING to expose the latency wall).
    allreduce_algorithm: AllreduceAlgorithm | None = None

    def __post_init__(self) -> None:
        if self.local_batch < 1:
            raise ConfigurationError("local_batch must be >= 1")
        if self.model_shards < 1:
            raise ConfigurationError("model_shards must be >= 1")
        if self.accumulation_steps < 1:
            raise ConfigurationError("accumulation_steps must be >= 1")
        for name in ("overlap_fraction", "io_overlap_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.compute_jitter_cv < 1.0:
            raise ConfigurationError("compute_jitter_cv must be in [0, 1)")

    def replicas(self, n_gpus: int) -> int:
        """Number of data-parallel model replicas on ``n_gpus`` GPUs."""
        if n_gpus < self.model_shards:
            raise ConfigurationError(
                f"{n_gpus} GPUs cannot hold a {self.model_shards}-shard replica"
            )
        if n_gpus % self.model_shards:
            raise ConfigurationError(
                f"model_shards={self.model_shards} must divide the GPU count "
                f"({n_gpus})"
            )
        return n_gpus // self.model_shards

    def global_batch(self, n_gpus: int) -> int:
        """Samples per optimizer step across the whole job."""
        return self.replicas(n_gpus) * self.local_batch * self.accumulation_steps
