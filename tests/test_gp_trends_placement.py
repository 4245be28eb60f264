"""Tests for adoption trends and topology-aware placement."""

import pytest

from repro.errors import ConfigurationError
from repro.network.placement import (
    PlacementStrategy,
    cross_leaf_fraction,
    place,
    placement_study,
    ring_link_load,
)
from repro.network.routing import RoutingPolicy
from repro.network.topology import FatTree, FatTreeSpec
from repro.portfolio import PortfolioAnalytics, Program, generate_portfolio
from repro.portfolio.taxonomy import AdoptionStatus
from repro.portfolio.trends import (
    fit_adoption_trend,
    usage_accounting_comparison,
)


class TestAdoptionTrends:
    @pytest.fixture(scope="class")
    def analytics(self):
        return PortfolioAnalytics(generate_portfolio())

    def test_incite_trend_positive(self, analytics):
        trend = fit_adoption_trend(analytics, Program.INCITE)
        assert trend.slope_per_year > 0
        # "grown steadily from 20% in 2019" -> roughly 3-4 points/year
        assert 0.02 < trend.slope_per_year < 0.06

    def test_linear_projection_matches_endpoints(self, analytics):
        trend = fit_adoption_trend(analytics, Program.INCITE)
        assert trend.linear_projection(2019) == pytest.approx(
            trend.fractions[0], abs=0.02
        )

    def test_projection_clipped_to_unit_interval(self, analytics):
        trend = fit_adoption_trend(analytics, Program.INCITE)
        assert trend.linear_projection(2100) == 1.0

    def test_year_reaching_majority(self, analytics):
        trend = fit_adoption_trend(analytics, Program.INCITE)
        year = trend.year_reaching(0.5)
        assert 2023 < year < 2040

    def test_single_year_program_rejected(self, analytics):
        with pytest.raises(ConfigurationError):
            fit_adoption_trend(analytics, Program.COVID)

    def test_hours_accounting_differs_from_counts(self, analytics):
        comparison = usage_accounting_comparison(analytics)
        by_projects = comparison["by_projects"][AdoptionStatus.ACTIVE]
        by_hours = comparison["by_hours"][AdoptionStatus.ACTIVE]
        assert by_projects != by_hours  # "could be misrepresentative"
        assert abs(by_projects - by_hours) < 0.25


class TestPlacement:
    @pytest.fixture(scope="class")
    def tree(self):
        return FatTree(FatTreeSpec(hosts=32, radix=8, levels=2))

    def test_contiguous_hosts_are_prefix(self, tree):
        assert place(tree, 6, PlacementStrategy.CONTIGUOUS) == list(range(6))

    def test_random_placement_unique(self, tree):
        hosts = place(tree, 12, PlacementStrategy.RANDOM, seed=1)
        assert len(set(hosts)) == 12

    def test_oversized_job_rejected(self, tree):
        with pytest.raises(ConfigurationError):
            place(tree, 100, PlacementStrategy.CONTIGUOUS)

    def test_contiguous_minimises_cross_leaf_traffic(self, tree):
        study = placement_study(tree, 12, seed=0)
        assert (
            study["contiguous"]["cross_leaf_fraction"]
            < study["random"]["cross_leaf_fraction"]
        )
        assert (
            study["contiguous"]["cross_leaf_fraction"]
            <= study["strided"]["cross_leaf_fraction"]
        )

    def test_adaptive_flattens_static_hotspots(self, tree):
        study = placement_study(tree, 12, seed=0)
        for row in study.values():
            assert row["adaptive_max_load"] <= row["static_max_load"] + 1e-9

    def test_fragmentation_hurts_static_routing(self, tree):
        study = placement_study(tree, 12, seed=0)
        assert (
            study["contiguous"]["static_max_load"]
            <= study["random"]["static_max_load"]
        )

    def test_duplicate_hosts_rejected(self, tree):
        with pytest.raises(ConfigurationError):
            ring_link_load(tree, [0, 0, 1])

    def test_cross_leaf_fraction_bounds(self, tree):
        hosts = place(tree, 8, PlacementStrategy.RANDOM, seed=3)
        fraction = cross_leaf_fraction(tree, hosts)
        assert 0.0 <= fraction <= 1.0

    def test_single_leaf_job_has_zero_fabric_traffic(self, tree):
        hosts = list(range(tree.spec.hosts_per_leaf))[:3]
        assert cross_leaf_fraction(tree, hosts) == 0.0
        assert ring_link_load(tree, hosts) == 0.0
