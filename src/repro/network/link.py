"""Alpha-beta link model.

Message transfer time is modelled as ``alpha + size / bandwidth`` — the
standard LogP-style first-order model. Summit's dual-rail EDR InfiniBand
gives 2 x 12.5 GB/s = 25 GB/s injection per node with ~1 microsecond
MPI-level latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.spec import MachineSpec


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point link characterised by latency and bandwidth.

    Parameters
    ----------
    latency:
        One-way message latency in seconds (the "alpha" term).
    bandwidth:
        Sustained bandwidth in bytes/s (the inverse "beta" term).
    rails:
        Number of independent rails; bandwidth is *per rail* and aggregates
        linearly, latency does not improve with rails.
    """

    latency: float
    bandwidth: float
    rails: int = 1

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not 0.0 <= self.latency < math.inf:
            raise ConfigurationError(
                f"latency must be finite and >= 0: {self.latency}"
            )
        if not 0.0 < self.bandwidth < math.inf:
            raise ConfigurationError(
                f"bandwidth must be positive and finite: {self.bandwidth}"
            )
        if self.rails < 1:
            raise ConfigurationError(f"rails must be >= 1, got {self.rails}")

    @property
    def total_bandwidth(self) -> float:
        """Aggregate bandwidth across rails in bytes/s."""
        return self.bandwidth * self.rails

    def transfer_time(self, size_bytes: float) -> float:
        """Time to move ``size_bytes`` across the link (alpha-beta model)."""
        if size_bytes < 0:
            raise ConfigurationError(f"negative message size: {size_bytes}")
        return self.latency + size_bytes / self.total_bandwidth

    def effective_bandwidth(self, size_bytes: float) -> float:
        """Achieved bytes/s for a message of ``size_bytes`` (latency-degraded)."""
        if size_bytes <= 0:
            raise ConfigurationError(f"message size must be positive: {size_bytes}")
        return size_bytes / self.transfer_time(size_bytes)


def intra_node_link(machine: "MachineSpec | str | None" = None) -> LinkSpec:
    """NVLink-class intra-node :class:`LinkSpec` for ``machine``."""
    from repro.machine.spec import resolve_machine

    return resolve_machine(machine).intra_node_link


# The Summit singletons below are resolved lazily (PEP 562) from the machine
# registry so importing this module never drags in ``repro.machine`` — the
# registry imports this module for the LinkSpec class.
#
#   EDR_RAIL          one EDR InfiniBand rail (12.5 GB/s payload)
#   SUMMIT_INJECTION  dual-rail EDR NIC, 25 GB/s injection per node
#   NVLINK2           NVLink 2.0 brick pair inside a node (per direction)


def __getattr__(name: str) -> LinkSpec:
    if name == "EDR_RAIL":
        from repro.machine.spec import SUMMIT

        return LinkSpec(
            latency=SUMMIT.injection_latency,
            bandwidth=SUMMIT.injection_rail_bandwidth,
        )
    if name == "SUMMIT_INJECTION":
        from repro.machine.spec import SUMMIT

        return SUMMIT.interconnect
    if name == "NVLINK2":
        from repro.machine.spec import SUMMIT

        return SUMMIT.intra_node_link
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(
        set(globals()) | {"EDR_RAIL", "SUMMIT_INJECTION", "NVLINK2"}
    )
