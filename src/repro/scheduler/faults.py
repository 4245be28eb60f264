"""Node-failure semantics for the batch-scheduler simulation.

A running job dies when one of its nodes dies; the facility requeues it.
If the job checkpoints every ``checkpoint_interval`` seconds, the requeued
execution resumes from the last committed checkpoint; otherwise it restarts
cold. Work between the last checkpoint and the failure is charged to
``lost_node_hours`` — the accounting Section VI motivates when it argues
that burst-buffer-cheap checkpoints, not peak throughput, set
time-to-solution at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.resilience.faults import DEFAULT_NODE_MTBF_SECONDS


@dataclass(frozen=True)
class FaultModel:
    """Failure/requeue configuration for a :class:`Scheduler` run."""

    node_mtbf_seconds: float = DEFAULT_NODE_MTBF_SECONDS
    checkpoint_interval: float | None = None  # None = jobs restart cold
    max_requeues: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not 0.0 < self.node_mtbf_seconds < math.inf:
            raise ConfigurationError("node MTBF must be positive and finite")
        if self.checkpoint_interval is not None and not (
            0.0 < self.checkpoint_interval < math.inf
        ):
            raise ConfigurationError(
                "checkpoint interval must be positive and finite"
            )
        if self.max_requeues < 0:
            raise ConfigurationError("max_requeues must be >= 0")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def committed_before(self, run_seconds: float) -> float:
        """Useful seconds safely checkpointed when a failure strikes
        ``run_seconds`` into an execution."""
        if self.checkpoint_interval is None:
            return 0.0
        return (run_seconds // self.checkpoint_interval) * self.checkpoint_interval
