"""Roofline analysis for the model catalog.

Section VI-B observes that AI/ML workloads "are typically computational
bound at the device level" because their three basic operation types are
dense. The roofline makes that quantitative: a kernel with arithmetic
intensity above the ridge point (peak FLOPs / memory bandwidth) is
compute-bound on the device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost import kernels
from repro.errors import ConfigurationError
from repro.machine.gpu import GpuSpec, Precision


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel/model placed on a device roofline."""

    arithmetic_intensity: float  # FLOPs per byte of device-memory traffic
    attainable_flops: float
    ridge_intensity: float

    @property
    def compute_bound(self) -> bool:
        return self.arithmetic_intensity >= self.ridge_intensity


def roofline_point(
    gpu: GpuSpec,
    flops: float,
    bytes_moved: float,
    precision: Precision = Precision.MIXED,
) -> RooflinePoint:
    """Place a kernel with ``flops`` work and ``bytes_moved`` memory traffic
    on the GPU's roofline."""
    if flops <= 0 or bytes_moved <= 0:
        raise ConfigurationError("flops and bytes_moved must be positive")
    peak = gpu.peak(precision)
    intensity = flops / bytes_moved
    ridge = peak / gpu.memory_bandwidth
    attainable = kernels.roofline_attainable(
        peak, gpu.memory_bandwidth, intensity
    )
    return RooflinePoint(
        arithmetic_intensity=intensity,
        attainable_flops=attainable,
        ridge_intensity=ridge,
    )
