"""The Section II-A inventory: the concrete OLCF systems, all partitions.

All capacities and rates below are as stated in the paper (see DESIGN.md
"Calibration constants"); where the paper gives no number (e.g. Andes'
interconnect) we use the published system documentation values.

The Summit calibration numbers themselves live in the machine registry —
:data:`repro.machine.spec.SUMMIT` — and the builders here read that spec,
so there is exactly one copy of every value. ``repro machine --system``
prints these; every analysis reads the spec.
"""

from __future__ import annotations

from repro import units
from repro.machine.cpu import AMD_EPYC_7302, INTEL_XEON_E5_2650V2
from repro.machine.gpu import NVIDIA_K80, NVIDIA_V100, GpuSpec
from repro.machine.node import NodeSpec
from repro.machine.spec import SUMMIT
from repro.machine.system import System
from repro.network.link import LinkSpec

__all__ = [
    "summit_high_mem_node",
    "summit",
    "rhea",
    "andes",
]


def summit_high_mem_node() -> NodeSpec:
    """A Summer-2020 "high memory" node: 192 GB HBM2, 2 TB DDR4, 6.4 TB NVMe.

    The doubled HBM is modelled by doubling the per-GPU memory (32 GB V100s).
    """
    big_v100 = GpuSpec(
        name="NVIDIA Tesla V100 (32 GB)",
        peak_flops=NVIDIA_V100.peak_flops,
        memory_bytes=32 * units.GIB,
        memory_bandwidth=NVIDIA_V100.memory_bandwidth,
        nvlink_bandwidth=NVIDIA_V100.nvlink_bandwidth,
    )
    return NodeSpec(
        name="IBM AC922 (Summit high-mem)",
        cpus=SUMMIT.cpus,
        cpu_count=SUMMIT.cpu_count,
        gpus=big_v100,
        gpu_count=SUMMIT.gpus_per_node,
        host_memory_bytes=2 * units.TB,
        nvme_bytes=4 * SUMMIT.nvme_capacity_bytes,
        nvme_read_bandwidth=4 * SUMMIT.nvme_read_bandwidth,
        nvme_write_bandwidth=4 * SUMMIT.nvme_write_bandwidth,
        injection_bandwidth=SUMMIT.injection_bandwidth,
    )


def summit() -> System:
    """The full Summit system: 4 608 original nodes and 54 high-memory nodes.

    >>> s = summit()
    >>> round(s.peak_flops() / 1e18, 2)   # "over 3 AI-ExaOps"
    3.5
    """
    return System(
        name=SUMMIT.name,
        node=SUMMIT.node(),
        node_count=SUMMIT.node_count,
        interconnect=SUMMIT.interconnect,
        shared_fs=SUMMIT.shared_fs,
        extra_partitions=((summit_high_mem_node(), 54),),
    )


def rhea() -> System:
    """Rhea, the original companion analysis cluster (retired late 2020)."""
    cpu_node = NodeSpec(
        name="Rhea CPU node",
        cpus=INTEL_XEON_E5_2650V2,
        cpu_count=2,
        gpus=None,
        gpu_count=0,
        host_memory_bytes=128 * units.GIB,
        nvme_bytes=0.0,
        nvme_read_bandwidth=0.0,
        nvme_write_bandwidth=0.0,
        injection_bandwidth=7 * units.GB,
    )
    gpu_node = NodeSpec(
        name="Rhea GPU node",
        cpus=INTEL_XEON_E5_2650V2,
        cpu_count=2,
        gpus=NVIDIA_K80,
        gpu_count=2,
        host_memory_bytes=1 * units.TIB,
        nvme_bytes=0.0,
        nvme_read_bandwidth=0.0,
        nvme_write_bandwidth=0.0,
        injection_bandwidth=7 * units.GB,
    )
    return System(
        name="Rhea",
        node=cpu_node,
        node_count=512,
        interconnect=LinkSpec(latency=1.3 * units.US, bandwidth=7 * units.GB),
        shared_fs=SUMMIT.shared_fs,
        extra_partitions=((gpu_node, 9),),
    )


def andes() -> System:
    """Andes, Rhea's late-2020 replacement (704 nodes, EPYC), keeping Rhea's
    nine K80 GPU nodes."""
    cpu_node = NodeSpec(
        name="Andes CPU node",
        cpus=AMD_EPYC_7302,
        cpu_count=2,
        gpus=None,
        gpu_count=0,
        host_memory_bytes=256 * units.GIB,
        nvme_bytes=0.0,
        nvme_read_bandwidth=0.0,
        nvme_write_bandwidth=0.0,
        injection_bandwidth=12.5 * units.GB,
    )
    gpu_node = NodeSpec(
        name="Andes GPU node (ex-Rhea)",
        cpus=INTEL_XEON_E5_2650V2,
        cpu_count=2,
        gpus=NVIDIA_K80,
        gpu_count=2,
        host_memory_bytes=1 * units.TIB,
        nvme_bytes=0.0,
        nvme_read_bandwidth=0.0,
        nvme_write_bandwidth=0.0,
        injection_bandwidth=7 * units.GB,
    )
    return System(
        name="Andes",
        node=cpu_node,
        node_count=695,
        interconnect=LinkSpec(latency=1.3 * units.US, bandwidth=12.5 * units.GB),
        shared_fs=SUMMIT.shared_fs,
        extra_partitions=((gpu_node, 9),),
    )
