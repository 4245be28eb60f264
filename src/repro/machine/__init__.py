"""Hardware models for Summit and its companion OLCF systems.

This package provides the static hardware catalog the rest of the library
builds on: GPU and CPU specifications (:mod:`repro.machine.gpu`,
:mod:`repro.machine.cpu`) and the machine registry
(:mod:`repro.machine.spec` — ``summit``, ``frontier-like``,
``perlmutter-like``, ``tpu-pod-like``). A
:class:`~repro.machine.spec.MachineSpec` is the one machine value every
analysis reads. Node compositions (:mod:`repro.machine.node`) and whole
systems (:mod:`repro.machine.system`) make up the Section II-A inventory
of the concrete OLCF machines (:mod:`repro.machine.summit`): Summit with
its high-memory nodes, Rhea and Andes.
"""

from repro.machine.cpu import (
    AMD_EPYC_7302,
    AMD_EPYC_7763,
    AMD_EPYC_7A53,
    GENERIC_X86_HOST,
    IBM_POWER9,
    INTEL_XEON_E5_2650V2,
    CpuSpec,
)
from repro.machine.gpu import (
    AMD_MI250X,
    NVIDIA_A100,
    NVIDIA_K80,
    NVIDIA_V100,
    TPU_V4_LIKE,
    GpuSpec,
    Precision,
)
from repro.machine.node import NodeSpec
from repro.machine.spec import (
    FRONTIER_LIKE,
    MACHINES,
    PERLMUTTER_LIKE,
    SUMMIT,
    TPU_POD_LIKE,
    MachineSpec,
    get_machine,
    machine_names,
    resolve_machine,
)
from repro.machine.summit import (
    andes,
    rhea,
    summit,
    summit_high_mem_node,
)
from repro.machine.system import System

__all__ = [
    "AMD_EPYC_7302",
    "AMD_EPYC_7763",
    "AMD_EPYC_7A53",
    "AMD_MI250X",
    "CpuSpec",
    "FRONTIER_LIKE",
    "GENERIC_X86_HOST",
    "GpuSpec",
    "IBM_POWER9",
    "INTEL_XEON_E5_2650V2",
    "MACHINES",
    "MachineSpec",
    "NVIDIA_A100",
    "NVIDIA_K80",
    "NVIDIA_V100",
    "NodeSpec",
    "PERLMUTTER_LIKE",
    "Precision",
    "SUMMIT",
    "System",
    "TPU_POD_LIKE",
    "TPU_V4_LIKE",
    "andes",
    "get_machine",
    "machine_names",
    "resolve_machine",
    "rhea",
    "summit",
    "summit_high_mem_node",
]
