"""Training-dataset descriptors and sharding plans.

A :class:`Dataset` is characterised by sample count and bytes/sample; a
:class:`ShardingPlan` describes how it is partitioned across node-local
burst buffers, including replication for shuffle quality and whether the
dataset fits at all (the paper notes large scientific datasets "can easily
outsize [a] single NVMe volume").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.errors import CapacityError, ConfigurationError


@dataclass(frozen=True)
class Dataset:
    """A training dataset.

    ``bytes_per_sample`` is the stored (on-disk) size of one training sample;
    for the ResNet-50/ImageNet calibration of Section VI-B we use 500 kB per
    sample, which together with per-GPU throughput reproduces the paper's
    ~20 TB/s aggregate read estimate.
    """

    name: str
    n_samples: int
    bytes_per_sample: float

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigurationError(f"{self.name}: need at least one sample")
        if self.bytes_per_sample <= 0:
            raise ConfigurationError(f"{self.name}: bytes_per_sample must be positive")

    @property
    def total_bytes(self) -> float:
        return self.n_samples * self.bytes_per_sample


@dataclass(frozen=True)
class ShardingPlan:
    """Partitioning of a dataset over ``n_nodes`` node-local volumes.

    Parameters
    ----------
    replication:
        Number of distinct nodes holding each shard. Replication > 1 widens
        the shuffle window without cross-node reads.
    """

    dataset: Dataset
    n_nodes: int
    nvme_bytes_per_node: float
    replication: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.replication < 1:
            raise ConfigurationError("replication must be >= 1")
        if self.replication > self.n_nodes:
            raise ConfigurationError("replication cannot exceed node count")
        if self.nvme_bytes_per_node <= 0:
            raise ConfigurationError("nvme_bytes_per_node must be positive")

    @property
    def bytes_per_node(self) -> float:
        """NVMe bytes each node must hold under this plan."""
        return self.dataset.total_bytes * self.replication / self.n_nodes

    @property
    def fits(self) -> bool:
        return self.bytes_per_node <= self.nvme_bytes_per_node

    def require_fits(self) -> None:
        if not self.fits:
            raise CapacityError(
                f"{self.dataset.name}: shard of "
                f"{units.format_bytes(self.bytes_per_node)} exceeds node NVMe "
                f"capacity {units.format_bytes(self.nvme_bytes_per_node)}"
            )


#: ImageNet-1k as stored for the ResNet-50 benchmark calibration.
IMAGENET = Dataset(name="ImageNet-1k", n_samples=1_281_167, bytes_per_sample=500 * units.KB)
