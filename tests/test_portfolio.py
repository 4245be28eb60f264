"""Tests for the survey substrate: taxonomy, reference, generation, analytics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TaxonomyError
from repro.portfolio import (
    DOMAIN_SUBDOMAINS,
    MOTIF_DEFINITIONS,
    AdoptionStatus,
    Domain,
    MLMethod,
    Motif,
    PortfolioAnalytics,
    Program,
    Project,
    generate_portfolio,
    ipf_fit,
)
from repro.portfolio import reference as ref
from repro.portfolio.generate import capped_allocate, integerize
from repro.portfolio.report import render_all
from repro.portfolio.taxonomy import subdomain_domain
from tests.instruments import consistency_report


class TestTaxonomy:
    def test_table_i_has_definitions_for_every_motif(self):
        assert set(MOTIF_DEFINITIONS) == set(Motif)

    def test_definitions_nonempty(self):
        for d in MOTIF_DEFINITIONS.values():
            assert d.definition
            assert d.example

    def test_table_ii_has_nine_domains(self):
        assert len(Domain) == 9
        assert set(DOMAIN_SUBDOMAINS) == set(Domain)

    def test_table_ii_subdomain_count(self):
        # The paper says 48 subdomain *codes* exist at the OLCF; Table II
        # prints the consolidated list used for the study, which has 40
        # entries (some codes are merged/unused after the paper's
        # "adjusted ... in a few cases" cleanup).
        total = sum(len(subs) for subs in DOMAIN_SUBDOMAINS.values())
        assert total == 40

    def test_subdomain_lookup(self):
        assert subdomain_domain("Climate") is Domain.EARTH_SCIENCE
        assert subdomain_domain("Machine Learning") is Domain.COMPUTER_SCIENCE

    def test_unknown_subdomain_raises(self):
        with pytest.raises(TaxonomyError):
            subdomain_domain("Alchemy")

    def test_six_programs(self):
        assert len(Program) == 6


class TestProject:
    def _project(self, **overrides):
        fields = dict(
            project_id="p1", program=Program.INCITE, year=2020,
            domain=Domain.BIOLOGY, subdomain="Biophysics",
            status=AdoptionStatus.ACTIVE, motif=Motif.STEERING,
            method=MLMethod.DEEP_LEARNING, allocation_hours=1e5,
        )
        fields.update(overrides)
        return Project(**fields)

    def test_valid_project(self):
        assert self._project().uses_ai

    def test_ai_project_requires_motif(self):
        with pytest.raises(ConfigurationError):
            self._project(motif=None)

    def test_non_ai_project_rejects_motif(self):
        with pytest.raises(ConfigurationError):
            self._project(status=AdoptionStatus.NONE, method=None)

    def test_non_ai_project_valid_without_motif(self):
        p = self._project(status=AdoptionStatus.NONE, motif=None, method=None)
        assert not p.uses_ai

    def test_subdomain_must_match_domain(self):
        with pytest.raises(ConfigurationError):
            self._project(subdomain="Climate")

    def test_year_range_enforced(self):
        with pytest.raises(ConfigurationError):
            self._project(year=2017)


class TestReferenceConsistency:
    def test_all_cross_checks_pass(self):
        report = consistency_report()
        assert all(report.values()), {k: v for k, v in report.items() if not v}

    def test_program_totals_as_stated(self):
        # "662 project-years (INCITE 147, ALCC 72, DD 352, COVID non-DD 12,
        # ECP 62, Gordon Bell finalist 17)" — GB handled in apps.registry.
        totals = {}
        for (program, _), (total, _, _) in ref.PROGRAM_YEAR_TABLE.items():
            totals[program] = totals.get(program, 0) + total
        assert totals[Program.INCITE] == 147
        assert totals[Program.ALCC] == 72
        assert totals[Program.DD] == 352
        assert totals[Program.COVID] == 12
        assert totals[Program.ECP] == 62

    def test_incite_2019_active_20_percent(self):
        total, active, _ = ref.PROGRAM_YEAR_TABLE[(Program.INCITE, 2019)]
        assert active / total == pytest.approx(0.20, abs=0.01)

    def test_incite_2022_near_stated_31_28(self):
        total, active, inactive = ref.PROGRAM_YEAR_TABLE[(Program.INCITE, 2022)]
        assert active / total == pytest.approx(0.31, abs=0.01)
        assert inactive / total == pytest.approx(0.28, abs=0.01)

    def test_overall_one_third_active_8_percent_inactive(self):
        active = sum(a for _, a, _ in ref.PROGRAM_YEAR_TABLE.values())
        inactive = sum(i for _, _, i in ref.PROGRAM_YEAR_TABLE.values())
        assert active / 645 == pytest.approx(1 / 3, abs=0.02)
        assert inactive / 645 == pytest.approx(0.08, abs=0.005)

    def test_top5_motifs_over_three_quarters(self):
        counts = sorted(ref.MOTIF_COUNTS.values(), reverse=True)
        assert sum(counts[:5]) / sum(counts) > 0.75

    def test_biology_uses_no_submodels(self):
        assert ref.MOTIF_DOMAIN_MATRIX[Motif.SUBMODEL][Domain.BIOLOGY] == 0

    def test_cs_has_no_math_algorithm(self):
        assert ref.MOTIF_DOMAIN_MATRIX[Motif.MATH_CS_ALGORITHM][
            Domain.COMPUTER_SCIENCE
        ] == 0

    def test_engineering_submodel_is_largest_cell(self):
        cells = [
            (count, motif, domain)
            for motif, row in ref.MOTIF_DOMAIN_MATRIX.items()
            for domain, count in row.items()
        ]
        top = max(cells, key=lambda cell: cell[0])
        assert (top[1], top[2]) == (Motif.SUBMODEL, Domain.ENGINEERING)

    def test_materials_dominates_md_potentials(self):
        row = ref.MOTIF_DOMAIN_MATRIX[Motif.MD_POTENTIAL]
        assert row[Domain.MATERIALS] == max(row.values())
        assert row[Domain.FUSION_PLASMA] > 0  # plasma/surface interactions

    def test_gordon_bell_totals_17(self):
        assert sum(t for t, _ in ref.GORDON_BELL_TABLE.values()) == 17


class TestIpf:
    def test_matches_both_margins(self):
        seed = np.ones((3, 4))
        rows = np.array([10.0, 20.0, 30.0])
        cols = np.array([15.0, 15.0, 15.0, 15.0])
        m = ipf_fit(seed, rows, cols)
        assert np.allclose(m.sum(axis=1), rows)
        assert np.allclose(m.sum(axis=0), cols)

    def test_structural_zeros_preserved(self):
        seed = np.array([[1.0, 0.0], [1.0, 1.0]])
        m = ipf_fit(seed, np.array([5.0, 5.0]), np.array([7.0, 3.0]))
        assert m[0, 1] == 0.0

    def test_inconsistent_margins_rejected(self):
        with pytest.raises(ConfigurationError):
            ipf_fit(np.ones((2, 2)), np.array([5.0, 5.0]), np.array([3.0, 3.0]))

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_integerize_preserves_margins(self, rows, seed):
        rng = np.random.default_rng(seed)
        total = sum(rows)
        # random column split of the same total
        n_cols = 3
        cols = rng.multinomial(total, np.ones(n_cols) / n_cols)
        if (cols == 0).any():
            cols = cols + 0  # zeros are fine for IPF with uniform seed? skip
            cols[cols == 0] = 1
            cols[np.argmax(cols)] -= (cols.sum() - total)
            if (cols <= 0).any() or cols.sum() != total:
                return
        fitted = ipf_fit(np.ones((len(rows), n_cols)), np.array(rows, float),
                         cols.astype(float))
        out = integerize(fitted)
        assert (out.sum(axis=1) == np.array(rows)).all()
        assert (out.sum(axis=0) == cols).all()
        assert (out >= 0).all()


class TestCappedAllocate:
    def test_respects_caps_and_margins(self):
        caps = np.array([[2, 2], [2, 2]])
        out = capped_allocate([3, 1], [2, 2], caps)
        assert (out <= caps).all()
        assert out.sum(axis=1).tolist() == [3, 1]
        assert out.sum(axis=0).tolist() == [2, 2]

    def test_infeasible_rejected(self):
        caps = np.array([[1, 0], [0, 1]])
        with pytest.raises(Exception):
            capped_allocate([2, 0], [1, 1], caps)

    def test_zero_demand_ok(self):
        out = capped_allocate([0, 0], [0, 0], np.ones((2, 2), dtype=int))
        assert out.sum() == 0


class TestGeneratedPortfolio:
    @pytest.fixture(scope="class")
    def analytics(self):
        return PortfolioAnalytics(generate_portfolio())

    def test_645_project_years(self, analytics):
        assert len(analytics.projects) == 645

    def test_fig1_overall_usage(self, analytics):
        usage = analytics.overall_usage()
        for status, expected in ref.FIG1_EXPECTED.items():
            assert usage[status] == pytest.approx(expected, abs=1e-9)

    def test_fig2_program_year_marginals_exact(self, analytics):
        table = analytics.usage_by_program_year()
        for (program, year), (total, active, inactive) in ref.PROGRAM_YEAR_TABLE.items():
            fractions = table[(program, year)]
            assert fractions[AdoptionStatus.ACTIVE] == pytest.approx(active / total)
            assert fractions[AdoptionStatus.INACTIVE] == pytest.approx(
                inactive / total
            )

    def test_fig2_stated_shape(self, analytics):
        """Section III's reading of Fig. 2: INCITE adoption "grown steadily",
        ALCC heavier in 2019 than 2021, COVID heavy and ECP light."""
        active = {
            cohort: row[AdoptionStatus.ACTIVE]
            for cohort, row in analytics.usage_by_program_year().items()
        }
        incite = [active[(Program.INCITE, y)] for y in (2019, 2020, 2021, 2022)]
        assert incite == sorted(incite)
        assert active[(Program.ALCC, 2019)] > active[(Program.ALCC, 2021)]
        assert active[(Program.COVID, 2020)] > 0.5
        assert active[(Program.ECP, 2020)] < 0.2

    def test_fig3_method_shares(self, analytics):
        usage = analytics.usage_by_method()
        for method, share in ref.METHOD_SHARES.items():
            assert usage[method] == pytest.approx(share, abs=0.01)

    def test_fig4_domain_totals_exact(self, analytics):
        table = analytics.usage_by_domain()
        for domain, (total, active, inactive) in ref.DOMAIN_TABLE.items():
            row = table[domain]
            assert sum(row.values()) == total
            assert row[AdoptionStatus.ACTIVE] == active
            assert row[AdoptionStatus.INACTIVE] == inactive

    def test_fig4_top_domains(self, analytics):
        # "Biology, Computer Science and Materials being top categories"
        top = analytics.top_ai_domains(3)
        assert set(top) == {
            Domain.BIOLOGY, Domain.COMPUTER_SCIENCE, Domain.MATERIALS
        }

    def test_fig4_chemistry_mostly_indirect(self, analytics):
        table = analytics.usage_by_domain()
        assert table[Domain.CHEMISTRY][AdoptionStatus.ACTIVE] <= 5

    def test_fig5_motif_counts_exact(self, analytics):
        counts = analytics.usage_by_motif()
        for motif, expected in ref.MOTIF_COUNTS.items():
            assert counts[motif] == expected

    def test_fig5_submodel_top_motif(self, analytics):
        assert analytics.top_motifs(1) == [Motif.SUBMODEL]

    def test_fig5_concentration_over_three_quarters(self, analytics):
        assert analytics.motif_concentration(5) > 0.75

    def test_fig6_matrix_exact(self, analytics):
        matrix = analytics.motif_by_domain()
        for motif, row in ref.MOTIF_DOMAIN_MATRIX.items():
            for domain, expected in row.items():
                assert matrix[motif][domain] == expected, (motif, domain)

    def test_subdomains_valid(self, analytics):
        for p in analytics.projects:
            assert p.subdomain in DOMAIN_SUBDOMAINS[p.domain]

    def test_allocation_hours_positive(self, analytics):
        assert all(p.allocation_hours > 0 for p in analytics.projects)

    def test_hours_weighted_usage_computes(self, analytics):
        weighted = analytics.overall_usage(by_hours=True)
        assert sum(weighted.values()) == pytest.approx(1.0)

    def test_report_renders_all_figures(self, analytics):
        text = render_all(analytics)
        for fig in ("Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6"):
            assert fig in text

    def test_generation_deterministic(self):
        a = generate_portfolio(seed=7)
        b = generate_portfolio(seed=7)
        assert [p.project_id for p in a] == [p.project_id for p in b]
        assert [p.motif for p in a] == [p.motif for p in b]

    def test_empty_analytics_rejected(self):
        with pytest.raises(ConfigurationError):
            PortfolioAnalytics([])
