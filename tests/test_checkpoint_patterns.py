"""Tests for the checkpoint model and the traffic-pattern generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.machine import SUMMIT
from repro.network.pattern import (
    PATTERNS,
    bisection_pattern,
    incast_pattern,
    permutation_pattern,
    ring_pattern,
)
from repro.network.routing import Router, RoutingPolicy
from repro.network.topology import FatTree, FatTreeSpec
from repro.storage.checkpoint import CheckpointPlan

GPFS = SUMMIT.shared_fs
NVME = SUMMIT.nvme


class TestCheckpointPlan:
    @pytest.fixture
    def plan(self):
        # 100 GB of state per node, 2048 nodes, 5-year node MTBF. Above
        # ~1200 nodes the shared filesystem's 2.5 TB/s divided per node
        # drops below the 2.1 GB/s node-local NVMe write rate — the regime
        # where the burst buffer wins checkpointing too.
        return CheckpointPlan(
            state_bytes_per_node=100e9,
            n_nodes=2048,
            node_mtbf_seconds=5 * 365 * 24 * 3600.0,
        )

    def test_system_mtbf_composes(self, plan):
        assert plan.system_mtbf == pytest.approx(plan.node_mtbf_seconds / 2048)

    def test_nvme_writes_are_node_local(self, plan):
        t = plan.write_time_nvme(NVME)
        assert t == pytest.approx(100e9 / 2.1e9)

    def test_shared_fs_writes_contend(self, plan):
        nvme_t = plan.write_time_nvme(NVME)
        fs_t = plan.write_time_shared(GPFS)
        assert fs_t > nvme_t  # 2.5 TB/s / 1024 nodes < 2.1 GB/s per node

    def test_young_interval_formula(self, plan):
        delta = 10.0
        assert plan.optimal_interval(delta) == pytest.approx(
            math.sqrt(2 * delta * plan.system_mtbf)
        )

    def test_optimal_interval_minimises_overhead(self, plan):
        delta = plan.write_time_nvme(NVME)
        tau_star = plan.optimal_interval(delta)
        best = plan.overhead_fraction(delta, tau_star)
        for factor in (0.3, 0.5, 2.0, 3.0):
            assert plan.overhead_fraction(delta, tau_star * factor) >= best

    def test_cheaper_writes_mean_less_overhead(self, plan):
        tiers = plan.compare_tiers(NVME, GPFS)
        assert tiers["nvme"]["overhead"] < tiers["shared_fs"]["overhead"]
        assert tiers["nvme"]["optimal_interval"] < tiers["shared_fs"][
            "optimal_interval"
        ]

    def test_nvme_wins_checkpointing_at_4096_nodes(self):
        plan = CheckpointPlan(100e9, 4096, 5 * 365 * 24 * 3600.0)
        tiers = plan.compare_tiers(NVME, GPFS)
        assert tiers["nvme"]["overhead"] < tiers["shared_fs"]["overhead"]

    def test_more_nodes_more_overhead(self):
        small = CheckpointPlan(100e9, 64, 5 * 365 * 24 * 3600.0)
        large = CheckpointPlan(100e9, 4096, 5 * 365 * 24 * 3600.0)
        delta = small.write_time_nvme(NVME)
        assert large.overhead_fraction(delta) > small.overhead_fraction(delta)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            CheckpointPlan(0, 8, 1e6)
        with pytest.raises(ConfigurationError):
            CheckpointPlan(1e9, 8, 1e6).optimal_interval(0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_plan_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            CheckpointPlan(value, 8, 1e6)
        with pytest.raises(ConfigurationError, match="finite"):
            CheckpointPlan(1e9, 8, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_write_time_rejected(self, value):
        plan = CheckpointPlan(1e9, 8, 1e6)
        with pytest.raises(ConfigurationError, match="finite"):
            plan.optimal_interval(value)
        with pytest.raises(ConfigurationError, match="finite"):
            plan.overhead_fraction(value)
        with pytest.raises(ConfigurationError, match="finite"):
            plan.overhead_fraction(value, interval=100.0)

    def test_nan_interval_rejected_infinite_means_never(self):
        plan = CheckpointPlan(1e9, 8, 1e6)
        with pytest.raises(ConfigurationError, match="interval"):
            plan.overhead_fraction(10.0, interval=math.nan)
        assert plan.overhead_fraction(10.0, interval=math.inf) == math.inf

    @settings(max_examples=25)
    @given(st.floats(min_value=1.0, max_value=1e4))
    def test_overhead_positive(self, delta):
        plan = CheckpointPlan(1e11, 256, 1e8)
        assert plan.overhead_fraction(delta) > 0


class TestTrafficPatterns:
    def test_ring_covers_all_hosts(self):
        flows = ring_pattern(8)
        assert len(flows) == 8
        assert {src for src, _ in flows} == set(range(8))

    def test_permutation_no_self_flows(self):
        for seed in range(5):
            flows = permutation_pattern(16, seed=seed)
            assert all(src != dst for src, dst in flows)
            assert sorted(dst for _, dst in flows) == list(range(16))

    def test_incast_targets_one_host(self):
        flows = incast_pattern(8, target=3)
        assert {dst for _, dst in flows} == {3}
        assert len(flows) == 7

    def test_bisection_crosses_halves(self):
        flows = bisection_pattern(8)
        assert all(src < 4 <= dst for src, dst in flows)

    def test_odd_bisection_rejected(self):
        with pytest.raises(ConfigurationError):
            bisection_pattern(7)

    def test_registry_complete(self):
        assert set(PATTERNS) == {"ring", "permutation", "incast", "bisection"}


class TestRoutingUnderPatterns:
    @pytest.fixture(scope="class")
    def tree(self):
        return FatTree(FatTreeSpec(hosts=32, radix=8, levels=2))

    def test_adaptive_beats_static_on_permutation(self, tree):
        worst_static, worst_adaptive = 0.0, 0.0
        for seed in range(5):
            flows = permutation_pattern(32, seed=seed)
            worst_static = max(
                worst_static, Router(tree, RoutingPolicy.STATIC).route(flows).max_load
            )
            worst_adaptive = max(
                worst_adaptive,
                Router(tree, RoutingPolicy.ADAPTIVE).route(flows).max_load,
            )
        assert worst_adaptive <= worst_static

    def test_adaptive_never_loses_and_wins_on_shuffle(self, tree):
        patterns = {
            "ring": ring_pattern(32),
            "permutation": permutation_pattern(32, seed=3),
            "incast": incast_pattern(32),
        }
        loads = {
            name: {
                policy: Router(tree, policy).route(flows).max_load
                for policy in RoutingPolicy
            }
            for name, flows in patterns.items()
        }
        static, adaptive = RoutingPolicy.STATIC, RoutingPolicy.ADAPTIVE
        for name, row in loads.items():
            assert row[adaptive] <= row[static] + 1e-9, name
        assert loads["permutation"][adaptive] < loads["permutation"][static]

    def test_incast_bottleneck_is_the_target_link(self, tree):
        flows = incast_pattern(32, target=0)
        result = Router(tree, RoutingPolicy.ADAPTIVE).route(flows)
        # all 31 flows must traverse the target's host link
        assert result.max_load == pytest.approx(31.0)

    def test_ring_neighbours_are_cheap(self, tree):
        ring = Router(tree, RoutingPolicy.ADAPTIVE).route(ring_pattern(32))
        incast = Router(tree, RoutingPolicy.ADAPTIVE).route(incast_pattern(32))
        assert ring.max_load < incast.max_load

    def test_nonblocking_tree_handles_bisection(self, tree):
        result = Router(tree, RoutingPolicy.ADAPTIVE).route(bisection_pattern(32))
        # full bisection bandwidth: no link should carry much more than one flow
        assert result.max_load <= 2.0
