"""Node-local NVMe burst-buffer model and data-staging cost.

Section VI-B: node-local NVMe delivers >27 TB/s aggregate read across Summit
(6 GB/s x 4 608 nodes = 27.6 TB/s), comfortably above the ~20 TB/s needed for
ideal full-system ResNet-50 scaling — but the data "is not persistent between
jobs", so every job pays a staging cost from the shared filesystem, and
per-epoch global shuffling is expensive once the dataset is partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError, ConfigurationError
from repro.storage.dataset import ShardingPlan
from repro.storage.filesystem import SharedFileSystem


@dataclass(frozen=True)
class BurstBuffer:
    """One node's NVMe volume."""

    capacity_bytes: float
    read_bandwidth: float
    write_bandwidth: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("NVMe capacity must be positive")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ConfigurationError("NVMe bandwidths must be positive")

    def aggregate_read_bandwidth(self, n_nodes: int) -> float:
        """Fleet-wide read bytes/s: node-local volumes scale linearly."""
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        return self.read_bandwidth * n_nodes

    def read_time(self, size_bytes: float) -> float:
        if size_bytes < 0:
            raise ConfigurationError("negative read size")
        return size_bytes / self.read_bandwidth


@dataclass(frozen=True)
class StagingPlan:
    """Cost model for staging a sharded dataset from the shared FS to NVMe.

    Staging is limited by the slower of (a) the shared filesystem's aggregate
    read bandwidth divided among nodes and (b) each node's NVMe write rate.
    With replication ``r`` the fabric must deliver ``r`` copies of the
    dataset in total.
    """

    plan: ShardingPlan
    shared_fs: SharedFileSystem
    nvme: BurstBuffer

    def __post_init__(self) -> None:
        if self.plan.nvme_bytes_per_node > self.nvme.capacity_bytes:
            raise CapacityError(
                "sharding plan was built against a larger NVMe volume than "
                "this burst buffer provides"
            )

    def staging_time(self) -> float:
        """Seconds to stage the full (replicated) dataset onto all nodes."""
        self.plan.require_fits()
        per_node = self.plan.bytes_per_node
        fs_rate = self.shared_fs.read_bandwidth(self.plan.n_nodes)
        node_rate = min(fs_rate, self.nvme.write_bandwidth)
        return per_node / node_rate

    def epoch_read_time(self, random_access: bool = True) -> float:
        """Seconds for each node to read its shard once per epoch.

        NVMe random reads are close to streaming rate, so no derate is
        applied; the flag is kept for symmetry with the shared filesystem.
        """
        del random_access
        return self.nvme.read_time(self.plan.bytes_per_node)

    def reshuffle_time(self, fraction: float = 1.0) -> float:
        """Seconds to globally re-shuffle ``fraction`` of the data between
        epochs by re-staging it through the shared filesystem.

        This is the cost the paper calls "expensive if per-epoch data
        shuffling is enforced".
        """
        if not 0 <= fraction <= 1:
            raise ConfigurationError("fraction must be in [0, 1]")
        if fraction == 0:
            return 0.0
        moved = self.plan.dataset.total_bytes * self.plan.replication * fraction
        # Round trip: write back to the shared FS then read the permutation.
        write_rate = self.shared_fs.aggregate_write_bandwidth
        read_rate = self.shared_fs.aggregate_read_bandwidth
        return moved / write_rate + moved / read_rate
