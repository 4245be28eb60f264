"""Tests for repro.storage: filesystem, datasets, burst buffers, I/O model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.errors import CapacityError, ConfigurationError
from repro.machine import SUMMIT
from repro.storage.burst_buffer import BurstBuffer, StagingPlan
from repro.storage.dataset import IMAGENET, Dataset, ShardingPlan
from repro.storage.filesystem import SharedFileSystem
from repro.storage.io_model import io_feasibility, read_requirement

GPFS = SUMMIT.shared_fs
NVME = SUMMIT.nvme


class TestSharedFileSystem:
    def test_single_client_capped_by_client_limit(self):
        assert GPFS.read_bandwidth(1) == GPFS.per_client_read_bandwidth

    def test_many_clients_share_aggregate(self):
        bw = GPFS.read_bandwidth(4608)
        assert bw == pytest.approx(2.5e12 / 4608)

    def test_random_access_derated(self):
        seq = GPFS.read_bandwidth(4608, random_access=False)
        rnd = GPFS.read_bandwidth(4608, random_access=True)
        assert rnd == pytest.approx(seq * GPFS.random_read_derate)

    def test_invalid_client_count(self):
        with pytest.raises(ConfigurationError):
            GPFS.read_bandwidth(0)

    def test_bad_derate_rejected(self):
        with pytest.raises(ConfigurationError):
            SharedFileSystem("x", 1e12, 1e12, 1e9, 1e15, random_read_derate=0.0)


class TestDataset:
    def test_imagenet_total_size(self):
        assert IMAGENET.total_bytes == pytest.approx(1_281_167 * 500e3)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            Dataset("x", 0, 1e3)


class TestShardingPlan:
    def test_fits_on_summit_nvme(self):
        plan = ShardingPlan(IMAGENET, n_nodes=64, nvme_bytes_per_node=1.6e12)
        assert plan.fits
        plan.require_fits()

    def test_replicated_shard_grows(self):
        base = ShardingPlan(IMAGENET, 64, 1.6e12)
        reps = ShardingPlan(IMAGENET, 64, 1.6e12, replication=4)
        assert reps.bytes_per_node == pytest.approx(4 * base.bytes_per_node)

    def test_oversized_dataset_detected(self):
        big = Dataset("sim-output", n_samples=10_000_000, bytes_per_sample=2e6)
        plan = ShardingPlan(big, n_nodes=4, nvme_bytes_per_node=1.6e12)
        assert not plan.fits
        with pytest.raises(CapacityError):
            plan.require_fits()

    def test_replication_cannot_exceed_nodes(self):
        with pytest.raises(ConfigurationError):
            ShardingPlan(IMAGENET, n_nodes=2, nvme_bytes_per_node=1e15,
                         replication=3)


class TestBurstBuffer:
    def test_aggregate_scales_linearly(self):
        assert NVME.aggregate_read_bandwidth(4608) == pytest.approx(
            4608 * 6e9
        )

    def test_summit_aggregate_over_27_tbs(self):
        assert NVME.aggregate_read_bandwidth(4608) > 27e12

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            BurstBuffer(capacity_bytes=0, read_bandwidth=1e9, write_bandwidth=1e9)


class TestStagingPlan:
    @pytest.fixture
    def staging(self):
        plan = ShardingPlan(IMAGENET, n_nodes=256, nvme_bytes_per_node=1.6e12)
        return StagingPlan(plan, GPFS, NVME)

    def test_staging_time_positive(self, staging):
        assert staging.staging_time() > 0

    def test_staging_bounded_by_nvme_write(self, staging):
        per_node = staging.plan.bytes_per_node
        assert staging.staging_time() >= per_node / NVME.write_bandwidth

    def test_epoch_read_faster_than_staging(self, staging):
        assert staging.epoch_read_time() < staging.staging_time()

    def test_reshuffle_costs_roundtrip(self, staging):
        t = staging.reshuffle_time(1.0)
        moved = IMAGENET.total_bytes
        expected = moved / 2.5e12 + moved / 2.5e12
        assert t == pytest.approx(expected)

    def test_partial_reshuffle_cheaper(self, staging):
        assert staging.reshuffle_time(0.1) == pytest.approx(
            staging.reshuffle_time(1.0) * 0.1
        )

    def test_zero_reshuffle_free(self, staging):
        assert staging.reshuffle_time(0.0) == 0.0

    def test_bad_fraction(self, staging):
        with pytest.raises(ConfigurationError):
            staging.reshuffle_time(1.5)


class TestIoModel:
    """Section VI-B's read-requirement arithmetic."""

    def test_resnet50_needs_about_20_tbs(self):
        # 1445 samples/s/GPU x 500 kB x 27648 GPUs ~ 20 TB/s
        req = read_requirement(1445, 500e3, 27648)
        assert req.required_bandwidth == pytest.approx(20e12, rel=0.01)

    def test_gpfs_infeasible_nvme_feasible_at_full_summit(self):
        req = read_requirement(1445, 500e3, 27648)
        feas = io_feasibility(req, GPFS, NVME, 4608,
                              random_access=False)
        assert not feas.shared_fs_feasible
        assert feas.nvme_feasible

    def test_gpfs_feasible_at_small_scale(self):
        req = read_requirement(1445, 500e3, 6 * 64)
        feas = io_feasibility(req, GPFS, NVME, 64,
                              random_access=False)
        assert feas.shared_fs_feasible

    def test_io_bound_throughput_fraction(self):
        req = read_requirement(1445, 500e3, 27648)
        feas = io_feasibility(req, GPFS, NVME, 4608,
                              random_access=False)
        assert min(1.0, feas.nvme_margin) == 1.0
        assert min(1.0, feas.shared_fs_margin) == pytest.approx(2.5 / 20, rel=0.02)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_requirement_linear_in_devices(self, n):
        one = read_requirement(100, 1e6, 1).required_bandwidth
        many = read_requirement(100, 1e6, n).required_bandwidth
        assert many == pytest.approx(one * n)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            read_requirement(0, 1e6, 1)
        with pytest.raises(ConfigurationError):
            read_requirement(100, 0, 1)
        with pytest.raises(ConfigurationError):
            read_requirement(100, 1e6, 0)
