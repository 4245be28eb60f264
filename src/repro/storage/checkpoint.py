"""Checkpoint cost model (Young/Daly) over the storage hierarchy.

Long training jobs on a leadership machine must checkpoint; where the
checkpoint goes (node-local NVMe vs the shared filesystem) and how often
are classic trade-offs. The optimum interval is Young's approximation
``tau* = sqrt(2 * delta * MTBF)`` (refined by Daly), where ``delta`` is the
checkpoint write time. The model quantifies another advantage of the burst
buffer the paper highlights: cheap checkpoints mean shorter optimal
intervals and less lost work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cost import kernels
from repro.errors import ConfigurationError
from repro.storage.burst_buffer import BurstBuffer
from repro.storage.filesystem import SharedFileSystem


@dataclass(frozen=True)
class CheckpointPlan:
    """A checkpoint configuration for a distributed job."""

    state_bytes_per_node: float
    n_nodes: int
    node_mtbf_seconds: float  # mean time between failures of ONE node

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not 0.0 < self.state_bytes_per_node < math.inf:
            raise ConfigurationError("state size must be positive and finite")
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if not 0.0 < self.node_mtbf_seconds < math.inf:
            raise ConfigurationError("MTBF must be positive and finite")

    @property
    def system_mtbf(self) -> float:
        """Job-wide MTBF: failures compose across nodes."""
        return kernels.system_mtbf(self.node_mtbf_seconds, self.n_nodes)

    def write_time_nvme(self, nvme: BurstBuffer) -> float:
        """Checkpoint to node-local NVMe: each node writes independently."""
        return self.state_bytes_per_node / nvme.write_bandwidth

    def write_time_shared(self, fs: SharedFileSystem) -> float:
        """Checkpoint to the shared FS: nodes share aggregate bandwidth."""
        per_node = kernels.shared_pool_bandwidth(
            fs.aggregate_write_bandwidth,
            fs.per_client_read_bandwidth,  # symmetric client cap
            self.n_nodes,
        )
        return self.state_bytes_per_node / per_node

    def optimal_interval(self, write_time: float) -> float:
        """Young's optimal checkpoint interval: sqrt(2 * delta * MTBF)."""
        _check_write_time(write_time)
        return kernels.young_interval(write_time, self.system_mtbf)

    def overhead_fraction(self, write_time: float, interval: float | None = None) -> float:
        """Expected fraction of wall-clock lost to checkpointing + rework.

        First-order model: checkpoint cost ``delta / tau`` plus expected
        rework ``(tau / 2 + delta) / MTBF``. An infinite ``interval``
        means "never checkpoint" (unbounded expected rework).
        """
        _check_write_time(write_time)
        tau = interval if interval is not None else self.optimal_interval(write_time)
        if not tau > 0:
            raise ConfigurationError("interval must be positive")
        return kernels.young_overhead(write_time, tau, self.system_mtbf)

    def compare_tiers(
        self, nvme: BurstBuffer, fs: SharedFileSystem
    ) -> dict[str, dict[str, float]]:
        """Optimal-interval overhead on each storage tier."""
        out = {}
        for name, write_time in (
            ("nvme", self.write_time_nvme(nvme)),
            ("shared_fs", self.write_time_shared(fs)),
        ):
            out[name] = {
                "write_time": write_time,
                "optimal_interval": self.optimal_interval(write_time),
                "overhead": self.overhead_fraction(write_time),
            }
        return out


def _check_write_time(write_time: float) -> None:
    if not 0.0 < write_time < math.inf:
        raise ConfigurationError("write time must be positive and finite")
