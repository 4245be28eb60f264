"""Tests for repro.network.link, .topology and .routing."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.network.link import EDR_RAIL, NVLINK2, SUMMIT_INJECTION, LinkSpec
from repro.network.routing import Router, RoutingPolicy
from repro.network.topology import FatTree, FatTreeSpec


class TestLinkSpec:
    def test_summit_injection_is_25_gbs(self):
        assert SUMMIT_INJECTION.total_bandwidth == 25e9

    def test_dual_rail_doubles_bandwidth_not_latency(self):
        assert SUMMIT_INJECTION.total_bandwidth == 2 * EDR_RAIL.total_bandwidth
        assert SUMMIT_INJECTION.latency == EDR_RAIL.latency

    def test_transfer_time_alpha_beta(self):
        link = LinkSpec(latency=1e-6, bandwidth=10e9)
        assert link.transfer_time(10e9) == pytest.approx(1.0 + 1e-6)

    def test_zero_size_costs_latency(self):
        assert EDR_RAIL.transfer_time(0) == EDR_RAIL.latency

    def test_effective_bandwidth_below_peak(self):
        assert EDR_RAIL.effective_bandwidth(1e3) < EDR_RAIL.total_bandwidth

    def test_effective_bandwidth_approaches_peak(self):
        assert EDR_RAIL.effective_bandwidth(1e12) == pytest.approx(
            EDR_RAIL.total_bandwidth, rel=1e-3
        )

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            EDR_RAIL.transfer_time(-1)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(latency=-1, bandwidth=1e9)
        with pytest.raises(ConfigurationError):
            LinkSpec(latency=1e-6, bandwidth=0)
        with pytest.raises(ConfigurationError):
            LinkSpec(latency=1e-6, bandwidth=1e9, rails=0)

    @pytest.mark.parametrize("field, value", [
        ("latency", math.nan),
        ("latency", math.inf),
        ("bandwidth", math.nan),
        ("bandwidth", math.inf),
    ])
    def test_non_finite_specs_rejected(self, field, value):
        spec = dict(latency=1e-6, bandwidth=1e9)
        spec[field] = value
        with pytest.raises(ConfigurationError, match=field):
            LinkSpec(**spec)

    @given(st.floats(min_value=1, max_value=1e12))
    def test_transfer_time_monotone_in_size(self, size):
        assert NVLINK2.transfer_time(size) <= NVLINK2.transfer_time(size * 2)


class TestFatTreeSpec:
    def test_nonblocking_split(self):
        spec = FatTreeSpec(hosts=100, radix=36)
        assert spec.hosts_per_leaf == 18
        assert spec.uplinks_per_leaf == 18

    def test_tapered_tree_has_more_host_ports(self):
        spec = FatTreeSpec(hosts=100, radix=36, taper=2.0)
        assert spec.hosts_per_leaf == 27
        assert spec.uplinks_per_leaf == 9

    def test_three_level_radix36_covers_summit(self):
        # Summit's ~4608 nodes fit in a 3-level radix-36 non-blocking tree
        spec = FatTreeSpec(hosts=4608, radix=36, levels=3)
        assert spec.max_hosts >= 4608

    def test_rejects_odd_radix(self):
        with pytest.raises(ConfigurationError):
            FatTreeSpec(hosts=10, radix=7)

    def test_rejects_bad_levels(self):
        with pytest.raises(ConfigurationError):
            FatTreeSpec(hosts=10, radix=8, levels=4)

    def test_rejects_taper_below_one(self):
        with pytest.raises(ConfigurationError):
            FatTreeSpec(hosts=10, radix=8, taper=0.5)


class TestFatTree:
    def test_overflow_rejected(self):
        spec = FatTreeSpec(hosts=10_000, radix=8, levels=2)
        with pytest.raises(ConfigurationError):
            FatTree(spec)

    def test_all_hosts_present(self):
        tree = FatTree(FatTreeSpec(hosts=32, radix=8, levels=2))
        hosts = [n for n, d in tree.graph.nodes(data=True) if d["kind"] == "host"]
        assert len(hosts) == 32

    def test_connected(self):
        import networkx as nx

        tree = FatTree(FatTreeSpec(hosts=32, radix=8, levels=2))
        assert nx.is_connected(tree.graph)

    def test_three_level_connected(self):
        import networkx as nx

        tree = FatTree(FatTreeSpec(hosts=48, radix=8, levels=3))
        assert nx.is_connected(tree.graph)

    def test_same_leaf_hop_count(self):
        tree = FatTree(FatTreeSpec(hosts=32, radix=8, levels=2))
        # hosts 0 and 1 share a leaf: host-leaf-host = 2 hops
        assert tree.hop_count(0, 1) == 2

    def test_cross_tree_hop_count_bounded_by_diameter(self):
        tree = FatTree(FatTreeSpec(hosts=32, radix=8, levels=2))
        assert tree.hop_count(0, 31) <= tree.diameter_hops()

    def test_self_hop_zero(self):
        tree = FatTree(FatTreeSpec(hosts=8, radix=8, levels=2))
        assert tree.hop_count(3, 3) == 0

    def test_bisection_scales_with_hosts(self):
        small = FatTree(FatTreeSpec(hosts=16, radix=8, levels=2))
        large = FatTree(FatTreeSpec(hosts=32, radix=8, levels=2))
        assert large.bisection_links() > small.bisection_links()

    def test_host_index_out_of_range(self):
        tree = FatTree(FatTreeSpec(hosts=8, radix=8, levels=2))
        with pytest.raises(ConfigurationError):
            tree.host(8)


class TestRouter:
    @pytest.fixture
    def tree(self):
        return FatTree(FatTreeSpec(hosts=16, radix=8, levels=2))

    def test_adaptive_spreads_load(self, tree):
        # all-to-one (incast) flows from distinct leaves
        flows = [(i, 0) for i in range(8, 16)]
        static = Router(tree, RoutingPolicy.STATIC).route(flows)
        adaptive = Router(tree, RoutingPolicy.ADAPTIVE).route(flows)
        assert adaptive.max_load <= static.max_load

    def test_no_flows_rejected(self, tree):
        with pytest.raises(ConfigurationError):
            Router(tree).route([])

    def test_self_flow_is_free(self, tree):
        result = Router(tree).route([(1, 1)])
        assert result.max_load == 0.0
        assert result.slowdown == 1.0

    def test_single_flow_unit_load(self, tree):
        result = Router(tree, RoutingPolicy.STATIC).route([(0, 15)])
        assert result.max_load == pytest.approx(1.0)

    def test_slowdown_at_least_one(self, tree):
        result = Router(tree).route([(0, 15), (1, 14), (2, 13)])
        assert result.slowdown >= 1.0
