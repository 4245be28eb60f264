"""Compute-node composition.

A :class:`NodeSpec` aggregates sockets, accelerators, memory tiers, the
node-local burst buffer and the network injection bandwidth. It is what
the Section II-A inventory (:mod:`repro.machine.summit`) lists and what
:meth:`~repro.machine.spec.MachineSpec.node` builds for per-node peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machine.cpu import CpuSpec
from repro.machine.gpu import GpuSpec, Precision


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute node.

    Parameters
    ----------
    name:
        Node model, e.g. ``"IBM AC922"``.
    cpus / cpu_count:
        Socket spec and socket count.
    gpus / gpu_count:
        Accelerator spec and count; ``gpu_count == 0`` models CPU-only nodes.
    host_memory_bytes:
        DDR capacity.
    nvme_bytes:
        Node-local non-volatile (burst-buffer) capacity; 0 if absent.
    nvme_read_bandwidth / nvme_write_bandwidth:
        Node-local NVMe bandwidths in bytes/s. Summit's 1.6 TB drives read at
        ~6 GB/s, which is what makes the aggregate "over 27 TB/s" of
        Section VI-B.
    injection_bandwidth:
        NIC injection bandwidth in bytes/s (dual-rail EDR = 25 GB/s).
    """

    name: str
    cpus: CpuSpec
    cpu_count: int
    gpus: GpuSpec | None
    gpu_count: int
    host_memory_bytes: float
    nvme_bytes: float
    nvme_read_bandwidth: float
    nvme_write_bandwidth: float
    injection_bandwidth: float

    def __post_init__(self) -> None:
        if self.cpu_count <= 0:
            raise ConfigurationError(f"{self.name}: need at least one CPU socket")
        if self.gpu_count < 0:
            raise ConfigurationError(f"{self.name}: negative gpu_count")
        if self.gpu_count > 0 and self.gpus is None:
            raise ConfigurationError(f"{self.name}: gpu_count > 0 but no GPU spec")
        if self.gpu_count == 0 and self.gpus is not None:
            raise ConfigurationError(f"{self.name}: GPU spec given but gpu_count is 0")
        # each check is written so that NaN fails it
        for field_name in ("host_memory_bytes", "injection_bandwidth"):
            if not 0.0 < getattr(self, field_name) < math.inf:
                raise ConfigurationError(
                    f"{self.name}: {field_name} must be positive and finite"
                )
        nvme = ("nvme_bytes", "nvme_read_bandwidth", "nvme_write_bandwidth")
        if any(getattr(self, f) != 0.0 for f in nvme):
            for field_name in nvme:
                if not 0.0 < getattr(self, field_name) < math.inf:
                    raise ConfigurationError(
                        f"{self.name}: {field_name} must be positive and "
                        "finite, or all three NVMe figures zero"
                    )

    @property
    def usable_cores(self) -> int:
        """User-visible cores per node (42 on Summit: 2 x 21)."""
        return self.cpu_count * self.cpus.usable_cores

    def peak_flops(self, precision: Precision = Precision.MIXED) -> float:
        """Peak node FLOP/s at ``precision``.

        GPU nodes are accounted by their accelerators alone (host FLOPs are
        negligible at these scales); CPU-only nodes use the socket peak.
        """
        if self.gpus is not None:
            return self.gpu_count * self.gpus.peak(precision)
        return self.cpu_count * self.cpus.peak_flops
