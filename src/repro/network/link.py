"""Alpha-beta link model.

Message transfer time is modelled as ``alpha + size / bandwidth`` — the
standard LogP-style first-order model. Summit's dual-rail EDR InfiniBand
gives 2 x 12.5 GB/s = 25 GB/s injection per node with ~1 microsecond
MPI-level latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


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
