"""Section VI-B aggregate read-bandwidth requirement model.

The paper estimates the read bandwidth required to sustain full-Summit
data-parallel training as::

    required = per_device_throughput (samples/s)
             x bytes_per_sample
             x n_devices

For ResNet-50 on ImageNet this comes to roughly 20 TB/s — unachievable on a
2.5 TB/s GPFS but within the >27 TB/s aggregate of node-local NVMe. This
module computes the requirement and classifies feasibility against each tier
of the storage hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost import kernels
from repro.errors import ConfigurationError
from repro.storage.burst_buffer import BurstBuffer
from repro.storage.filesystem import SharedFileSystem


@dataclass(frozen=True)
class IoRequirement:
    """The outcome of a read-requirement analysis."""

    required_bandwidth: float  # bytes/s aggregate
    per_device_bandwidth: float  # bytes/s per accelerator
    n_devices: int


def read_requirement(
    samples_per_second_per_device: float,
    bytes_per_sample: float,
    n_devices: int,
) -> IoRequirement:
    """Aggregate read bandwidth needed for ideal data-parallel scaling."""
    if samples_per_second_per_device <= 0:
        raise ConfigurationError("device throughput must be positive")
    if bytes_per_sample <= 0:
        raise ConfigurationError("bytes_per_sample must be positive")
    if n_devices < 1:
        raise ConfigurationError("need at least one device")
    per_device = kernels.per_device_read_bandwidth(
        samples_per_second_per_device, bytes_per_sample
    )
    return IoRequirement(
        required_bandwidth=kernels.required_read_bandwidth(
            samples_per_second_per_device, bytes_per_sample, n_devices
        ),
        per_device_bandwidth=per_device,
        n_devices=n_devices,
    )


@dataclass(frozen=True)
class IoFeasibility:
    """Whether each storage tier can sustain a requirement, and by what margin.

    ``margin`` > 1 means the tier has headroom; < 1 means it throttles
    training to that fraction of ideal throughput.
    """

    requirement: IoRequirement
    shared_fs_margin: float
    nvme_margin: float

    @property
    def shared_fs_feasible(self) -> bool:
        return self.shared_fs_margin >= 1.0

    @property
    def nvme_feasible(self) -> bool:
        return self.nvme_margin >= 1.0


def io_feasibility(
    requirement: IoRequirement,
    shared_fs: SharedFileSystem,
    nvme: BurstBuffer,
    n_nodes: int,
    random_access: bool = True,
) -> IoFeasibility:
    """Compare a requirement against both tiers of the Summit hierarchy."""
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    fs_bw = shared_fs.aggregate_read_bandwidth
    if random_access:
        fs_bw *= shared_fs.random_read_derate
    nvme_bw = nvme.aggregate_read_bandwidth(n_nodes)
    return IoFeasibility(
        requirement=requirement,
        shared_fs_margin=kernels.bandwidth_margin(
            fs_bw, requirement.required_bandwidth
        ),
        nvme_margin=kernels.bandwidth_margin(
            nvme_bw, requirement.required_bandwidth
        ),
    )
