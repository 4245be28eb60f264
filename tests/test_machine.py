"""Tests for repro.machine: GPU/CPU specs, nodes, systems, OLCF factories."""

import pytest

from repro import units
from repro.errors import CapacityError, ConfigurationError
from repro.machine import (
    AMD_EPYC_7302,
    IBM_POWER9,
    NVIDIA_K80,
    NVIDIA_V100,
    SUMMIT,
    CpuSpec,
    GpuSpec,
    NodeSpec,
    Precision,
    andes,
    rhea,
    summit,
    summit_high_mem_node,
)


class TestGpuSpec:
    def test_v100_mixed_peak(self):
        assert NVIDIA_V100.peak(Precision.MIXED) == 125e12

    def test_v100_fp64_peak(self):
        assert NVIDIA_V100.peak(Precision.FP64) == pytest.approx(7.8e12)

    def test_v100_memory_is_16_gib(self):
        assert NVIDIA_V100.memory_bytes == 16 * units.GIB

    def test_k80_has_no_tensor_cores_falls_back_to_fp32(self):
        assert NVIDIA_K80.peak(Precision.MIXED) == NVIDIA_K80.peak(Precision.FP32)

    def test_unknown_precision_raises(self):
        gpu = GpuSpec("x", {Precision.FP32: 1e12}, 1e9, 1e9)
        with pytest.raises(ConfigurationError):
            gpu.peak(Precision.FP64)

    def test_rejects_empty_peaks(self):
        with pytest.raises(ConfigurationError):
            GpuSpec("x", {}, 1e9, 1e9)

    def test_rejects_nonpositive_peak(self):
        with pytest.raises(ConfigurationError):
            GpuSpec("x", {Precision.FP32: 0.0}, 1e9, 1e9)

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ConfigurationError):
            GpuSpec("x", {Precision.FP32: 1e12}, 0.0, 1e9)


class TestCpuSpec:
    def test_power9_reserves_one_core(self):
        assert IBM_POWER9.cores == 22
        assert IBM_POWER9.usable_cores == 21

    def test_peak_flops_positive(self):
        assert AMD_EPYC_7302.peak_flops > 0

    def test_rejects_usable_above_physical(self):
        with pytest.raises(ConfigurationError):
            CpuSpec("x", cores=4, usable_cores=5, clock_hz=1e9)


class TestSummitNode:
    def test_composition(self):
        node = SUMMIT.node()
        assert node.cpu_count == 2
        assert node.gpu_count == 6
        assert node.nvme_bytes == SUMMIT.nvme_capacity_bytes > 0

    def test_42_usable_cores(self):
        # "One POWER9 core of each processor is reserved for the system,
        # leaving 42 cores per node to run user processes."
        assert SUMMIT.node().usable_cores == 42

    def test_hbm_96_gb(self):
        node = SUMMIT.node()
        assert node.gpu_count * node.gpus.memory_bytes == 6 * 16 * units.GIB

    def test_peak_750_tf_mixed(self):
        assert SUMMIT.node().peak_flops(Precision.MIXED) == 750e12

    def test_high_mem_node_has_double_hbm(self):
        big, node = summit_high_mem_node(), SUMMIT.node()
        assert big.gpu_count * big.gpus.memory_bytes == (
            2 * node.gpu_count * node.gpus.memory_bytes
        )

    def test_high_mem_node_nvme_6_4_tb(self):
        assert summit_high_mem_node().nvme_bytes == pytest.approx(6.4e12)

    def test_cpu_only_node_peak_uses_cpu(self):
        node = rhea().node
        assert node.gpu_count == 0
        assert node.peak_flops(Precision.FP64) == 2 * node.cpus.peak_flops

    def test_gpu_count_without_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(
                name="bad", cpus=IBM_POWER9, cpu_count=2, gpus=None, gpu_count=6,
                host_memory_bytes=1e9, nvme_bytes=0, nvme_read_bandwidth=0,
                nvme_write_bandwidth=0, injection_bandwidth=1e9,
            )

    def test_nvme_without_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(
                name="bad", cpus=IBM_POWER9, cpu_count=2, gpus=None, gpu_count=0,
                host_memory_bytes=1e9, nvme_bytes=1e12, nvme_read_bandwidth=0,
                nvme_write_bandwidth=0, injection_bandwidth=1e9,
            )


def _total_nodes(system) -> int:
    return system.node_count + sum(c for _, c in system.extra_partitions)


class TestSummitSystem:
    def test_node_count(self):
        assert summit().node_count == 4608

    def test_total_nodes_includes_high_mem(self):
        assert _total_nodes(summit()) == 4608 + 54

    def test_over_3_ai_exaops(self):
        # Summit "over 3 AI-ExaOps mixed precision peak performance"
        assert summit().peak_flops(Precision.MIXED) > 3e18

    def test_gpu_count(self):
        assert summit().total_gpus == (4608 + 54) * 6

    def test_injection_bandwidth_25_gbs(self):
        assert summit().interconnect.total_bandwidth == 25e9

    def test_nvme_aggregate_over_27_tbs(self):
        # Section VI-B: "node-local NVMe has aggregate read bandwidth over
        # 27 TB/s"
        assert SUMMIT.nvme.aggregate_read_bandwidth(4608) > 27e12

    def test_gpfs_read_2_5_tbs(self):
        assert summit().shared_fs.aggregate_read_bandwidth == 2.5e12

    def test_require_nodes_over_capacity(self):
        with pytest.raises(CapacityError):
            SUMMIT.require_nodes(5000)

    def test_require_nodes_zero(self):
        with pytest.raises(ConfigurationError):
            SUMMIT.require_nodes(0)

    def test_describe_mentions_name(self):
        assert "Summit" in summit().describe()


class TestCompanionClusters:
    def test_rhea_partitions(self):
        r = rhea()
        assert r.node_count == 512
        assert _total_nodes(r) == 521  # 512 CPU + 9 GPU

    def test_andes_704_nodes(self):
        # "the 704-node Andes cluster", including the nine ex-Rhea GPU nodes
        assert _total_nodes(andes()) == 704

    def test_companions_share_summit_filesystem(self):
        assert rhea().shared_fs is summit().shared_fs
        assert andes().shared_fs is summit().shared_fs

    def test_rhea_cpu_nodes_have_no_gpus(self):
        assert rhea().node.gpus is None
