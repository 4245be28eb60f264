"""The machine registry: frozen :class:`MachineSpec` values by name.

This module is the single source of truth for every machine-level
calibration number in the library. A :class:`MachineSpec` captures the
whole shape of a leadership system — node count, accelerators per node,
per-GPU FLOPs and HBM, injection rails/bandwidth/latency, the
NVLink-class intra-node fabric, the shared filesystem, the node-local
NVMe burst buffer, and the topology class — and every spec is tagged
with a **provenance class**:

- ``"paper"`` — values stated by the source paper (Summit only);
- ``"estimated"`` — values assembled from vendor datasheets and public
  system documentation (every other machine).

The registry ships four machines:

========================  ==========  ===================================
name                      provenance  sketch
========================  ==========  ===================================
``summit``                paper       4 608 x 6 V100, dual-rail EDR, GPFS
``frontier-like``         estimated   9 408 x 4 MI250X, Slingshot, Lustre
``perlmutter-like``       estimated   1 536 x 4 A100, Slingshot-11, Lustre
``tpu-pod-like``          estimated   256 x 4 TPU-class chips, torus ICI
========================  ==========  ===================================

:data:`SUMMIT` is **bit-identical** to the historical Summit calibration
constants; the conformance goldens assert this byte-for-byte.

A spec is the one machine value the analyses read: the training
simulator, the step-cost composite, the Section IV-B apps, the goodput
model and the :mod:`repro.core` facade all take a :class:`MachineSpec`
and read its fields and adapters. :class:`~repro.machine.system.System`
is only the Section II-A inventory that ``repro machine --system`` prints.

Import discipline: this module imports only :mod:`repro.units`,
:mod:`repro.errors` and the leaf CPU/GPU catalogs, so any layer can read
``SUMMIT.<field>`` without creating an import cycle. The adapters that
build :class:`~repro.network.link.LinkSpec`,
:class:`~repro.storage.filesystem.SharedFileSystem`,
:class:`~repro.storage.burst_buffer.BurstBuffer` and
:class:`~repro.machine.node.NodeSpec` objects import those layers lazily
at call time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import units
from repro.errors import CapacityError, ConfigurationError
from repro.machine.cpu import (
    AMD_EPYC_7A53,
    AMD_EPYC_7763,
    GENERIC_X86_HOST,
    IBM_POWER9,
    CpuSpec,
)
from repro.machine.gpu import (
    AMD_MI250X,
    NVIDIA_A100,
    NVIDIA_V100,
    TPU_V4_LIKE,
    GpuSpec,
    Precision,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.node import NodeSpec
    from repro.network.link import LinkSpec
    from repro.storage.burst_buffer import BurstBuffer
    from repro.storage.filesystem import SharedFileSystem

__all__ = [
    "MACHINES",
    "MachineSpec",
    "PROVENANCE_CLASSES",
    "TOPOLOGY_CLASSES",
    "get_machine",
    "machine_names",
    "resolve_machine",
]

#: Where a spec's numbers come from: the paper itself, or public estimates.
PROVENANCE_CLASSES = ("paper", "estimated")

#: Coarse interconnect topology classes the registry distinguishes.
TOPOLOGY_CLASSES = ("fat-tree", "dragonfly", "torus")


@dataclass(frozen=True)
class MachineSpec:
    """Frozen description of one machine, sufficient to rebuild every
    link, storage and node model the cost layers consume.

    All rates are bytes/s, capacities bytes, latencies seconds, FLOPs
    FLOP/s — the same SI discipline as :mod:`repro.units`.
    """

    # -- identity ------------------------------------------------------------
    key: str
    name: str
    provenance: str  # one of PROVENANCE_CLASSES

    # -- shape ---------------------------------------------------------------
    node_count: int
    node_name: str
    cpus: CpuSpec
    cpu_count: int
    gpus: GpuSpec | None
    gpus_per_node: int
    host_memory_bytes: float

    # -- interconnect --------------------------------------------------------
    injection_rails: int
    injection_rail_bandwidth: float
    injection_latency: float
    intra_node_bandwidth: float
    intra_node_latency: float
    topology: str  # one of TOPOLOGY_CLASSES

    # -- shared filesystem ---------------------------------------------------
    fs_name: str
    fs_aggregate_read_bandwidth: float
    fs_aggregate_write_bandwidth: float
    fs_per_client_bandwidth: float
    fs_capacity_bytes: float

    # -- node-local NVMe burst buffer (all zero when absent) -----------------
    nvme_capacity_bytes: float = 0.0
    nvme_read_bandwidth: float = 0.0
    nvme_write_bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCE_CLASSES:
            raise ConfigurationError(
                f"{self.key}: provenance {self.provenance!r} not in "
                f"{PROVENANCE_CLASSES}"
            )
        if self.topology not in TOPOLOGY_CLASSES:
            raise ConfigurationError(
                f"{self.key}: topology {self.topology!r} not in "
                f"{TOPOLOGY_CLASSES}"
            )
        if self.node_count < 1:
            raise ConfigurationError(f"{self.key}: need at least one node")
        if self.gpus_per_node < 0:
            raise ConfigurationError(f"{self.key}: negative gpus_per_node")
        if (self.gpus is None) != (self.gpus_per_node == 0):
            raise ConfigurationError(
                f"{self.key}: gpus and gpus_per_node must agree"
            )
        if self.cpu_count < 1:
            raise ConfigurationError(f"{self.key}: need at least one socket")
        if self.injection_rails < 1:
            raise ConfigurationError(f"{self.key}: injection rails must be >= 1")
        # each check is written so that NaN fails it
        for field_name in (
            "host_memory_bytes",
            "injection_rail_bandwidth",
            "intra_node_bandwidth",
            "fs_aggregate_read_bandwidth",
            "fs_aggregate_write_bandwidth",
            "fs_per_client_bandwidth",
            "fs_capacity_bytes",
        ):
            if not 0.0 < getattr(self, field_name) < math.inf:
                raise ConfigurationError(
                    f"{self.key}: {field_name} must be positive and finite"
                )
        for field_name in ("injection_latency", "intra_node_latency"):
            if not 0.0 <= getattr(self, field_name) < math.inf:
                raise ConfigurationError(
                    f"{self.key}: {field_name} must be finite and "
                    "non-negative"
                )
        nvme = (
            "nvme_capacity_bytes",
            "nvme_read_bandwidth",
            "nvme_write_bandwidth",
        )
        if any(getattr(self, f) != 0.0 for f in nvme):
            for field_name in nvme:
                if not 0.0 < getattr(self, field_name) < math.inf:
                    raise ConfigurationError(
                        f"{self.key}: {field_name} must be positive and "
                        "finite, or all three NVMe figures zero"
                    )

    # -- derived scalars ------------------------------------------------------

    @property
    def injection_bandwidth(self) -> float:
        """Aggregate per-node injection bytes/s across all rails."""
        return self.injection_rails * self.injection_rail_bandwidth

    @property
    def algorithmic_bandwidth(self) -> float:
        """Ring-allreduce algorithmic bandwidth: half the injection rate
        (the Section VI-B closed form generalised to any machine)."""
        return self.injection_bandwidth / 2.0

    @property
    def has_nvme(self) -> bool:
        return self.nvme_capacity_bytes > 0

    @property
    def aggregate_nvme_read_bandwidth(self) -> float:
        """Fleet-wide node-local read bytes/s (0 when the machine has no
        burst buffer): per-node rate x node count."""
        return self.nvme_read_bandwidth * self.node_count

    def peak_flops(self, precision: Precision = Precision.MIXED) -> float:
        """Main-partition peak FLOP/s at ``precision``."""
        return self.node_count * self.node().peak_flops(precision)

    def require_nodes(self, n: int) -> None:
        """Raise :class:`CapacityError` if an ``n``-node job cannot be placed
        on the main partition."""
        if n < 1:
            raise ConfigurationError("job size must be at least one node")
        if n > self.node_count:
            raise CapacityError(
                f"{self.name}: requested {n} nodes, main partition has "
                f"{self.node_count}"
            )

    # -- adapters into the link, storage and node layers ----------------------

    @property
    def interconnect(self) -> "LinkSpec":
        """Per-node injection link (alpha-beta model, rails aggregate)."""
        from repro.network.link import LinkSpec

        return LinkSpec(
            latency=self.injection_latency,
            bandwidth=self.injection_rail_bandwidth,
            rails=self.injection_rails,
        )

    @property
    def intra_node_link(self) -> "LinkSpec":
        """NVLink-class link between accelerators inside a node."""
        from repro.network.link import LinkSpec

        return LinkSpec(
            latency=self.intra_node_latency,
            bandwidth=self.intra_node_bandwidth,
        )

    # cached (writes to __dict__, legal on a frozen dataclass) so that every
    # consumer of one spec shares one filesystem object — rhea()/andes()
    # mount *the* Summit GPFS instance, not an equal copy
    @functools.cached_property
    def shared_fs(self) -> "SharedFileSystem":
        from repro.storage.filesystem import SharedFileSystem

        return SharedFileSystem(
            name=self.fs_name,
            aggregate_read_bandwidth=self.fs_aggregate_read_bandwidth,
            aggregate_write_bandwidth=self.fs_aggregate_write_bandwidth,
            per_client_read_bandwidth=self.fs_per_client_bandwidth,
            capacity_bytes=self.fs_capacity_bytes,
        )

    @property
    def nvme(self) -> "BurstBuffer | None":
        if not self.has_nvme:
            return None
        from repro.storage.burst_buffer import BurstBuffer

        return BurstBuffer(
            capacity_bytes=self.nvme_capacity_bytes,
            read_bandwidth=self.nvme_read_bandwidth,
            write_bandwidth=self.nvme_write_bandwidth,
        )

    def node(self) -> "NodeSpec":
        """The main-partition node built from this spec's numbers."""
        from repro.machine.node import NodeSpec

        return NodeSpec(
            name=self.node_name,
            cpus=self.cpus,
            cpu_count=self.cpu_count,
            gpus=self.gpus,
            gpu_count=self.gpus_per_node,
            host_memory_bytes=self.host_memory_bytes,
            nvme_bytes=self.nvme_capacity_bytes,
            nvme_read_bandwidth=self.nvme_read_bandwidth,
            nvme_write_bandwidth=self.nvme_write_bandwidth,
            injection_bandwidth=self.injection_bandwidth,
        )

    # -- reporting ------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable summary, provenance tagged."""
        gpu = (
            f"{self.gpus_per_node} x {self.gpus.name}"
            if self.gpus is not None
            else "CPU-only"
        )
        lines = [
            f"{self.name} [{self.key}] — provenance: {self.provenance}",
            f"  nodes        {self.node_count} x {self.node_name} ({gpu})",
            f"  peak (mixed) {units.format_flops(self.peak_flops())}",
            f"  injection    {self.injection_rails} x "
            f"{units.format_rate(self.injection_rail_bandwidth)} = "
            f"{units.format_rate(self.injection_bandwidth)}, "
            f"{units.format_time(self.injection_latency)} latency "
            f"({self.topology})",
            f"  intra-node   {units.format_rate(self.intra_node_bandwidth)}, "
            f"{units.format_time(self.intra_node_latency)} latency",
            f"  shared FS    {self.fs_name}: read "
            f"{units.format_rate(self.fs_aggregate_read_bandwidth)}, "
            f"{units.format_bytes(self.fs_capacity_bytes)}",
        ]
        if self.has_nvme:
            lines.append(
                f"  node NVMe    {units.format_bytes(self.nvme_capacity_bytes)}"
                f" at {units.format_rate(self.nvme_read_bandwidth)} read "
                f"(aggregate "
                f"{units.format_rate(self.aggregate_nvme_read_bandwidth)})"
            )
        else:
            lines.append("  node NVMe    none")
        return "\n".join(lines)


# -- the registry --------------------------------------------------------------

#: Summit, bit-identical to the historical calibration constants. The
#: expressions below are the *same float expressions* those constants
#: used, so every derived number is byte-for-byte unchanged.
SUMMIT = MachineSpec(
    key="summit",
    name="Summit",
    provenance="paper",
    node_count=4608,
    node_name="IBM AC922 (Summit)",
    cpus=IBM_POWER9,
    cpu_count=2,
    gpus=NVIDIA_V100,
    gpus_per_node=6,
    host_memory_bytes=512 * units.GIB,
    injection_rails=2,
    injection_rail_bandwidth=12.5 * units.GB,
    injection_latency=1.0 * units.US,
    intra_node_bandwidth=50 * units.GB,
    intra_node_latency=0.7 * units.US,
    topology="fat-tree",
    fs_name="Alpine (GPFS)",
    fs_aggregate_read_bandwidth=2.5 * units.TB,
    fs_aggregate_write_bandwidth=2.5 * units.TB,
    fs_per_client_bandwidth=12.5 * units.GB,
    fs_capacity_bytes=250 * units.PB,
    nvme_capacity_bytes=1.6 * units.TB,
    nvme_read_bandwidth=6.0 * units.GB,
    nvme_write_bandwidth=2.1 * units.GB,
)

#: Frontier-class machine: MI250X nodes on a Slingshot dragonfly with the
#: Orion Lustre filesystem and per-node NVMe. Vendor/system-doc estimates.
FRONTIER_LIKE = MachineSpec(
    key="frontier-like",
    name="Frontier-like",
    provenance="estimated",
    node_count=9408,
    node_name="HPE Cray EX235a",
    cpus=AMD_EPYC_7A53,
    cpu_count=1,
    gpus=AMD_MI250X,
    gpus_per_node=4,
    host_memory_bytes=512 * units.GIB,
    injection_rails=4,
    injection_rail_bandwidth=25 * units.GB,
    injection_latency=2.0 * units.US,
    intra_node_bandwidth=100 * units.GB,
    intra_node_latency=1.0 * units.US,
    topology="dragonfly",
    fs_name="Orion (Lustre)",
    fs_aggregate_read_bandwidth=10 * units.TB,
    fs_aggregate_write_bandwidth=5 * units.TB,
    fs_per_client_bandwidth=25 * units.GB,
    fs_capacity_bytes=700 * units.PB,
    nvme_capacity_bytes=3.84 * units.TB,
    nvme_read_bandwidth=8.0 * units.GB,
    nvme_write_bandwidth=4.0 * units.GB,
)

#: Perlmutter-class machine: A100 GPU nodes on Slingshot-11; no node-local
#: NVMe on the GPU partition. Vendor/system-doc estimates.
PERLMUTTER_LIKE = MachineSpec(
    key="perlmutter-like",
    name="Perlmutter-like",
    provenance="estimated",
    node_count=1536,
    node_name="HPE Cray EX A100 node",
    cpus=AMD_EPYC_7763,
    cpu_count=1,
    gpus=NVIDIA_A100,
    gpus_per_node=4,
    host_memory_bytes=256 * units.GIB,
    injection_rails=2,
    injection_rail_bandwidth=25 * units.GB,
    injection_latency=1.5 * units.US,
    intra_node_bandwidth=100 * units.GB,
    intra_node_latency=0.7 * units.US,
    topology="dragonfly",
    fs_name="Perlmutter scratch (Lustre)",
    fs_aggregate_read_bandwidth=5 * units.TB,
    fs_aggregate_write_bandwidth=5 * units.TB,
    fs_per_client_bandwidth=20 * units.GB,
    fs_capacity_bytes=35 * units.PB,
)

#: Abstract TPU-pod-class machine: four TPU-class chips per host on a torus
#: inter-chip interconnect, backed by an object store. Deliberately coarse.
TPU_POD_LIKE = MachineSpec(
    key="tpu-pod-like",
    name="TPU-pod-like",
    provenance="estimated",
    node_count=256,
    node_name="TPU host board",
    cpus=GENERIC_X86_HOST,
    cpu_count=1,
    gpus=TPU_V4_LIKE,
    gpus_per_node=4,
    host_memory_bytes=512 * units.GIB,
    injection_rails=1,
    injection_rail_bandwidth=100 * units.GB,
    injection_latency=1.0 * units.US,
    intra_node_bandwidth=100 * units.GB,
    intra_node_latency=0.5 * units.US,
    topology="torus",
    fs_name="object store",
    fs_aggregate_read_bandwidth=1 * units.TB,
    fs_aggregate_write_bandwidth=1 * units.TB,
    fs_per_client_bandwidth=5 * units.GB,
    fs_capacity_bytes=100 * units.PB,
)


#: Name -> spec. Keys are what ``--machine`` accepts on the CLI.
MACHINES: dict[str, MachineSpec] = {
    "summit": SUMMIT,
    "frontier-like": FRONTIER_LIKE,
    "perlmutter-like": PERLMUTTER_LIKE,
    "tpu-pod-like": TPU_POD_LIKE,
}


def machine_names() -> tuple[str, ...]:
    """Registry names in deterministic (sorted) order."""
    return tuple(sorted(MACHINES))


def get_machine(name: str) -> MachineSpec:
    """Look a machine up by registry name.

    >>> get_machine("summit").provenance
    'paper'
    >>> get_machine("frontier-like").provenance
    'estimated'
    """
    try:
        return MACHINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {name!r}; choose from {', '.join(machine_names())}"
        ) from None


def resolve_machine(machine: "MachineSpec | str | None") -> MachineSpec:
    """Normalise a machine argument: a spec passes through, a string is a
    registry lookup, ``None`` means Summit."""
    if machine is None:
        return SUMMIT
    if isinstance(machine, MachineSpec):
        return machine
    return get_machine(machine)
