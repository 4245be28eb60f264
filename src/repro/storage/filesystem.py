"""Shared parallel-filesystem model (Summit's GPFS/Alpine).

The file system is modelled as a shared bandwidth pool: ``n`` concurrent
readers each achieve ``min(per_client_cap, aggregate / n)``. Random-access
(shuffled) reads are derated by a configurable factor relative to streaming,
reflecting the "iterative random access" I/O pattern of AI/ML workloads the
paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost import kernels
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SharedFileSystem:
    """A site-wide shared filesystem characterised by aggregate bandwidths.

    Parameters
    ----------
    aggregate_read_bandwidth / aggregate_write_bandwidth:
        Total deliverable bytes/s across all clients (GPFS on Summit reads at
        ~2.5 TB/s).
    per_client_read_bandwidth:
        Cap on any single node's achievable read rate.
    random_read_derate:
        Multiplier (0, 1] applied to read bandwidth for random-access
        patterns; small-file random reads on GPFS achieve well under the
        streaming rate.
    capacity_bytes:
        Usable capacity.
    """

    name: str
    aggregate_read_bandwidth: float
    aggregate_write_bandwidth: float
    per_client_read_bandwidth: float
    capacity_bytes: float
    random_read_derate: float = 0.4

    def __post_init__(self) -> None:
        for field_name in (
            "aggregate_read_bandwidth",
            "aggregate_write_bandwidth",
            "per_client_read_bandwidth",
            "capacity_bytes",
        ):
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(f"{self.name}: {field_name} must be positive")
        if not 0 < self.random_read_derate <= 1:
            raise ConfigurationError(
                f"{self.name}: random_read_derate must be in (0, 1]"
            )

    def read_bandwidth(self, n_clients: int, random_access: bool = False) -> float:
        """Per-client achieved read bytes/s with ``n_clients`` concurrent readers."""
        if n_clients < 1:
            raise ConfigurationError("need at least one client")
        aggregate = self.aggregate_read_bandwidth
        if random_access:
            aggregate *= self.random_read_derate
        return kernels.shared_pool_bandwidth(
            aggregate, self.per_client_read_bandwidth, n_clients
        )
