"""The Section II-A inventory: a whole OLCF system and its partitions.

A :class:`System` is what ``repro machine --system`` prints: Summit with
its 54 high-memory nodes, Rhea and Andes. Every analysis reads a
:class:`~repro.machine.spec.MachineSpec` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.errors import ConfigurationError
from repro.machine.gpu import Precision
from repro.machine.node import NodeSpec
from repro.network.link import LinkSpec
from repro.storage.filesystem import SharedFileSystem


@dataclass(frozen=True)
class System:
    """A complete machine: homogeneous node partitions plus fabric and storage.

    Parameters
    ----------
    name:
        Machine name ("Summit", "Andes", ...).
    node / node_count:
        The main partition's node spec and size.
    extra_partitions:
        Additional (spec, count) partitions — e.g. Summit's 54 high-memory
        nodes or Andes' nine inherited GPU nodes.
    interconnect:
        Per-node injection link spec.
    shared_fs:
        Center-wide filesystem; ``None`` for a cluster sharing another
        system's filesystem (Rhea/Andes mount Summit's).
    """

    name: str
    node: NodeSpec
    node_count: int
    interconnect: LinkSpec
    shared_fs: SharedFileSystem | None = None
    extra_partitions: tuple[tuple[NodeSpec, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigurationError(f"{self.name}: need at least one node")
        for spec, count in self.extra_partitions:
            if count < 1:
                raise ConfigurationError(
                    f"{self.name}: empty extra partition {spec.name}"
                )

    # -- aggregates -------------------------------------------------------------

    @property
    def total_gpus(self) -> int:
        total = self.node_count * self.node.gpu_count
        total += sum(spec.gpu_count * c for spec, c in self.extra_partitions)
        return total

    def peak_flops(self, precision: Precision = Precision.MIXED) -> float:
        """System peak at ``precision`` across all partitions."""
        total = self.node_count * self.node.peak_flops(precision)
        for spec, count in self.extra_partitions:
            total += count * spec.peak_flops(precision)
        return total

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        parts = [
            f"{self.name}: {self.node_count} x {self.node.name}",
            f"{self.total_gpus} GPUs" if self.total_gpus else "CPU-only",
            f"peak {units.format_flops(self.peak_flops(Precision.MIXED))} (mixed)"
            if self.total_gpus
            else "",
            f"injection {units.format_rate(self.interconnect.total_bandwidth)}",
        ]
        if self.shared_fs is not None:
            parts.append(
                f"{self.shared_fs.name} read "
                f"{units.format_rate(self.shared_fs.aggregate_read_bandwidth)}"
            )
        return ", ".join(p for p in parts if p)
