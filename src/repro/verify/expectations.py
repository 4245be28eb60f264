"""The expectation registry: every paper-stated quantity, machine-readable.

Each :class:`Expectation` carries the paper's value, the comparison rule
(tolerance, bound or exact equality), units, and provenance — both *where*
in the paper the number comes from (``paper``) and *how firmly* the paper
commits to it (``provenance``: ``stated`` / ``estimated`` / ``structural``,
the convention of :mod:`repro.portfolio.reference`) — plus the measurement
that reproduces it from this codebase. The registry is the single gate
proving the whole reproduction still matches the paper after a refactor:
``repro verify`` runs it end to end and ``tests/test_conformance.py`` runs
it as tier-1 tests.

Comparisons are self-contained, so an expectation can also judge an
externally measured value:

>>> e = Expectation(
...     key="demo.active_third", section="demo",
...     description="about 1/3 of projects actively use AI",
...     paper="Fig. 1 / Sec. III", provenance="stated",
...     expected=1 / 3, cmp="approx", rel_tol=0.05,
...     measure=lambda ctx: 208 / 645)
>>> r = e.compare(208 / 645)
>>> (r.passed, round(r.rel_error, 3))
(True, 0.033)
>>> bound = Expectation(
...     key="demo.nvme", section="demo",
...     description="NVMe aggregate read over 27 TB/s",
...     paper="Sec. VI-B", provenance="stated",
...     expected=27e12, cmp="gt", units="B/s",
...     measure=lambda ctx: 27.6e12)
>>> bound.compare(2e12).passed
False
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = [
    "CheckResult",
    "Expectation",
    "VerifyContext",
    "build_registry",
    "expectation_sections",
    "get_expectation",
]

#: Comparison rules an expectation may use.
_COMPARISONS = ("approx", "exact", "gt", "ge", "lt", "le", "true")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of measuring one expectation."""

    key: str
    section: str
    description: str
    paper: str
    provenance: str
    units: str
    cmp: str
    expected: Any
    measured: Any
    rel_error: float | None
    passed: bool

    def as_dict(self) -> dict:
        """JSON-serialisable record (numpy scalars coerced to Python)."""
        out = dataclasses.asdict(self)
        for k in ("expected", "measured", "rel_error"):
            v = out[k]
            if hasattr(v, "item"):
                out[k] = v.item()
        return out

    def message(self) -> str:
        """One-line paper-vs-measured verdict for assertion messages."""
        err = "" if self.rel_error is None else f" (rel. err {self.rel_error:.3%})"
        return (
            f"{self.key} [{self.paper}]: paper {self.cmp} {self.expected!r} "
            f"{self.units}, measured {self.measured!r}{err} -> "
            f"{'PASS' if self.passed else 'FAIL'}"
        )


@dataclass(frozen=True)
class Expectation:
    """One paper-stated quantity with its reproduction measurement.

    ``cmp`` selects the rule: ``approx`` (within ``rel_tol``/``abs_tol``),
    ``exact`` (equality — integers, enum counts, booleans), one-sided bounds
    (``gt``/``ge``/``lt``/``le`` against ``expected``), or ``true`` (the
    measurement itself is the pass/fail boolean and ``expected`` is True).
    """

    key: str
    section: str
    description: str
    paper: str
    provenance: str  # stated | estimated | structural
    expected: Any
    measure: Callable[["VerifyContext"], Any] = field(repr=False, compare=False)
    cmp: str = "approx"
    rel_tol: float | None = None
    abs_tol: float | None = None
    units: str = ""

    def __post_init__(self) -> None:
        if self.cmp not in _COMPARISONS:
            raise ConfigurationError(
                f"{self.key}: unknown comparison {self.cmp!r}"
            )
        if self.cmp == "approx" and self.rel_tol is None and self.abs_tol is None:
            raise ConfigurationError(
                f"{self.key}: 'approx' needs rel_tol and/or abs_tol"
            )
        if self.provenance not in ("stated", "estimated", "structural"):
            raise ConfigurationError(
                f"{self.key}: unknown provenance {self.provenance!r}"
            )

    def compare(self, measured: Any) -> CheckResult:
        """Judge an already-measured value against this expectation."""
        rel_error: float | None = None
        if self.cmp == "true":
            passed = bool(measured) is True
        elif self.cmp == "exact":
            passed = bool(measured == self.expected)
            rel_error = self._rel_error(measured)
        elif self.cmp == "approx":
            rel_error = self._rel_error(measured)
            delta = abs(float(measured) - float(self.expected))
            ok_rel = (
                self.rel_tol is not None
                and rel_error is not None
                and rel_error <= self.rel_tol
            )
            ok_abs = self.abs_tol is not None and delta <= self.abs_tol
            passed = ok_rel or ok_abs
        else:  # one-sided bounds
            m, e = float(measured), float(self.expected)
            passed = {
                "gt": m > e, "ge": m >= e, "lt": m < e, "le": m <= e,
            }[self.cmp]
            rel_error = self._rel_error(measured)
        return CheckResult(
            key=self.key, section=self.section, description=self.description,
            paper=self.paper, provenance=self.provenance, units=self.units,
            cmp=self.cmp, expected=self.expected, measured=measured,
            rel_error=rel_error, passed=passed,
        )

    def _rel_error(self, measured: Any) -> float | None:
        try:
            e, m = float(self.expected), float(measured)
        except (TypeError, ValueError):
            return None
        if isinstance(self.expected, bool) or isinstance(measured, bool):
            return None
        if e == 0.0:
            return abs(m)
        return abs(m - e) / abs(e)

    def check(self, ctx: "VerifyContext") -> CheckResult:
        """Measure this expectation from the codebase and judge it."""
        return self.compare(self.measure(ctx))


class VerifyContext:
    """Shared, lazily-computed measurement substrate for the registry.

    Expensive artifacts (the calibrated portfolio, the five app
    simulations, the Section V workflow campaigns) are computed once per
    context and cached, so running the full registry costs one pass of
    each. ``seed`` drives every stochastic substrate; identical seeds give
    identical measurements.
    """

    def __init__(self, seed: int = 0, survey_seed: int = 2022):
        self.seed = seed
        self.survey_seed = survey_seed
        self._app_results: dict[str, dict] = {}

    # -- Section III: survey ------------------------------------------------------

    @cached_property
    def analytics(self):
        from repro.core import UsageSurvey

        return UsageSurvey.calibrated(seed=self.survey_seed).analytics

    @cached_property
    def overall_usage(self) -> dict:
        return self.analytics.overall_usage()

    @cached_property
    def program_year(self) -> dict:
        return self.analytics.usage_by_program_year()

    @cached_property
    def method_shares(self) -> dict:
        return self.analytics.usage_by_method()

    @cached_property
    def domain_table(self) -> dict:
        return self.analytics.usage_by_domain()

    @cached_property
    def motif_counts(self) -> dict:
        return self.analytics.usage_by_motif()

    @cached_property
    def motif_matrix(self) -> dict:
        return self.analytics.motif_by_domain()

    # -- Section IV-B: extreme scale ---------------------------------------------

    def app_result(self, key: str) -> dict:
        if key not in self._app_results:
            from repro.apps.extreme_scale import get_app

            self._app_results[key] = get_app(key).simulate()
        return self._app_results[key]

    @cached_property
    def blanchard_no_io(self) -> dict:
        import dataclasses as dc

        from repro.apps.extreme_scale import get_app
        from repro.training.parallelism import DataSource

        return dc.replace(
            get_app("blanchard"), data_source=DataSource.MEMORY
        ).simulate()

    def app_global_batch(self, key: str) -> float:
        from repro.apps.extreme_scale import get_app

        app = get_app(key)
        return float(app.job(app.peak_nodes).global_batch())

    # -- Section VI-B: hardware requirements -------------------------------------

    @cached_property
    def io_report(self) -> dict:
        from repro.core import SummitSimulator

        return SummitSimulator().io_report("resnet50")

    def allreduce_estimate(self, model_key: str) -> float:
        from repro.core import SummitSimulator

        return SummitSimulator().allreduce_estimate(model_key)

    def gradient_bytes(self, model_key: str) -> float:
        from repro.models.catalog import get_model

        return float(get_model(model_key).gradient_bytes)

    def comm_compute_ratio(self, model_key: str, local_batch: int) -> float:
        """The paper's allreduce-vs-per-batch-compute ratio (Sec. VI-B)."""
        from repro.machine.gpu import NVIDIA_V100
        from repro.models.catalog import get_model
        from repro.network.collectives import paper_allreduce_estimate
        from repro.network.link import SUMMIT_INJECTION

        model = get_model(model_key)
        comm = paper_allreduce_estimate(model.gradient_bytes, SUMMIT_INJECTION)
        return comm / model.step_compute_time(NVIDIA_V100, local_batch)

    @cached_property
    def beyond_bert_comm_fraction(self) -> float:
        """Exposed-comm share of a 2.5x-BERT at 1024 nodes, unoverlapped —
        the paper's "models larger than BERT-large become communication-
        bound" claim, measured through the full training simulator."""
        import dataclasses as dc

        from repro.machine.summit import summit
        from repro.models import bert_large
        from repro.training.job import TrainingJob
        from repro.training.parallelism import (
            AllreduceAlgorithm,
            DataSource,
            ParallelismPlan,
        )

        giant = dc.replace(
            bert_large(), parameters=2.5 * 350e6,
            activation_bytes_per_sample=48e6,
        )
        job = TrainingJob(
            giant, summit(include_high_mem=False), 1024,
            ParallelismPlan(
                local_batch=8, overlap_fraction=0.0,
                allreduce_algorithm=AllreduceAlgorithm.RING,
            ),
            data_source=DataSource.MEMORY,
        )
        return job.breakdown().comm_fraction

    @cached_property
    def staging_costs(self) -> tuple[float, float, float]:
        """(stage, epoch-read, reshuffle) seconds for full-Summit ImageNet."""
        from repro.machine.spec import SUMMIT
        from repro.storage.burst_buffer import SUMMIT_NVME, StagingPlan
        from repro.storage.dataset import IMAGENET, ShardingPlan
        from repro.storage.filesystem import SUMMIT_GPFS

        plan = ShardingPlan(
            IMAGENET, n_nodes=SUMMIT.node_count,
            nvme_bytes_per_node=SUMMIT.nvme_capacity_bytes,
        )
        staging = StagingPlan(plan, SUMMIT_GPFS, SUMMIT_NVME)
        return (
            staging.staging_time(),
            staging.epoch_read_time(),
            staging.reshuffle_time(),
        )

    # -- Section V: workflow case studies ----------------------------------------

    @cached_property
    def materials(self):
        from repro.workflows.case_materials import MaterialsWorkflow

        workflow = MaterialsWorkflow(lattice_size=12, seed=self.seed)
        return workflow.run(n_training=32, n_sweeps=60, n_warmup=60)

    @cached_property
    def biology(self):
        from repro.workflows.case_biology import MultiscaleWorkflow

        workflow = MultiscaleWorkflow(seed=self.seed)
        return workflow.run(n_windows=6, frames_per_window=8, ae_epochs=250)

    @cached_property
    def biology_campaign(self) -> tuple[float, float]:
        """(orchestrated makespan, serial time) for the 4-window campaign."""
        from repro.workflows.case_biology import MultiscaleWorkflow

        graph = MultiscaleWorkflow.campaign_graph(n_windows=4)
        return graph.execute().makespan, graph.serial_time()

    @cached_property
    def drug(self):
        from repro.science.docking import CompoundLibrary, DockingOracle
        from repro.workflows.case_drug import DrugDiscoveryWorkflow

        library = CompoundLibrary.random(1500, seed=4)
        workflow = DrugDiscoveryWorkflow(library, DockingOracle(seed=4), seed=4)
        return workflow.run(initial=48, per_iteration=24, n_iterations=4)


# ---------------------------------------------------------------------------
# Registry construction, one builder per paper section.
# ---------------------------------------------------------------------------


def _e(key, description, paper, provenance, expected, measure, **kw):
    section = key.split(".", 1)[0]
    return Expectation(
        key=key, section=section, description=description, paper=paper,
        provenance=provenance, expected=expected, measure=measure, **kw,
    )


def _table1() -> list[Expectation]:
    from repro.portfolio.taxonomy import MOTIF_DEFINITIONS, Motif

    return [
        _e(
            "table1.motif_taxonomy_size",
            "10 paper motifs + 1 'undetermined' bookkeeping row, all defined",
            "Table I", "stated", 11,
            lambda ctx: len(MOTIF_DEFINITIONS), cmp="exact", units="motifs",
        ),
        _e(
            "table1.definitions_complete",
            "every motif carries a definition and an example application",
            "Table I", "structural", True,
            lambda ctx: all(
                MOTIF_DEFINITIONS[m].definition and MOTIF_DEFINITIONS[m].example
                for m in Motif
            ),
            cmp="true",
        ),
        _e(
            "table1.portfolio_classified",
            "every AI project in the Fig. 5/6 cohort is motif-classified",
            "Table I / Sec. III", "structural", True,
            lambda ctx: sum(ctx.motif_counts.values()) == 117, cmp="true",
        ),
    ]


def _table2() -> list[Expectation]:
    from repro.portfolio.taxonomy import (
        DOMAIN_SUBDOMAINS,
        Domain,
        subdomain_domain,
    )

    return [
        _e(
            "table2.domain_count", "nine science domains",
            "Table II", "stated", 9,
            lambda ctx: len(list(Domain)), cmp="exact", units="domains",
        ),
        _e(
            "table2.subdomain_count", "40 listed subdomain codes",
            "Table II", "stated", 40,
            lambda ctx: sum(len(v) for v in DOMAIN_SUBDOMAINS.values()),
            cmp="exact", units="subdomains",
        ),
        _e(
            "table2.roundtrip_exact",
            "every subdomain classifies back to its own domain",
            "Table II", "structural", True,
            lambda ctx: all(
                subdomain_domain(s) is d
                for d, subs in DOMAIN_SUBDOMAINS.items() for s in subs
            ),
            cmp="true",
        ),
    ]


def _table3() -> list[Expectation]:
    from repro.apps.registry import gordon_bell_table

    def ai_count(year, category):
        return lambda ctx: gordon_bell_table()[(year, category)][1]

    entries = [
        _e(
            "table3.total_finalists",
            "17 Summit-based Gordon Bell finalist entries",
            "Table III", "stated", 17,
            lambda ctx: sum(t for t, _ in gordon_bell_table().values()),
            cmp="exact", units="finalists",
        ),
    ]
    for (year, category), ai in (
        ((2018, "std"), 3), ((2019, "std"), 0), ((2020, "std"), 1),
        ((2020, "covid"), 2), ((2021, "std"), 1), ((2021, "covid"), 3),
    ):
        entries.append(_e(
            f"table3.ai_{year}_{category}",
            f"AI/ML finalists, {year} {category} category",
            "Table III", "stated", ai, ai_count(year, category),
            cmp="exact", units="finalists",
        ))
    return entries


def _fig1() -> list[Expectation]:
    from repro.portfolio.taxonomy import AdoptionStatus

    return [
        _e(
            "fig1.active_fraction", "about 1/3 of project-years actively use AI",
            "Fig. 1 / Sec. III", "stated", 1 / 3,
            lambda ctx: ctx.overall_usage[AdoptionStatus.ACTIVE],
            rel_tol=0.05,
        ),
        _e(
            "fig1.inactive_fraction", "another ~8% show indirect/planned use",
            "Fig. 1 / Sec. III", "stated", 0.08,
            lambda ctx: ctx.overall_usage[AdoptionStatus.INACTIVE],
            abs_tol=0.005,
        ),
        _e(
            "fig1.active_calibrated", "calibrated active fraction, 208/645",
            "Fig. 1", "estimated", 208 / 645,
            lambda ctx: ctx.overall_usage[AdoptionStatus.ACTIVE],
            rel_tol=1e-12,
        ),
        _e(
            "fig1.inactive_calibrated", "calibrated inactive fraction, 52/645",
            "Fig. 1", "estimated", 52 / 645,
            lambda ctx: ctx.overall_usage[AdoptionStatus.INACTIVE],
            rel_tol=1e-12,
        ),
    ]


def _fig2() -> list[Expectation]:
    from repro.portfolio.taxonomy import AdoptionStatus, Program

    def frac(program, year, status):
        return lambda ctx: ctx.program_year[(program, year)][status]

    return [
        _e(
            "fig2.incite_2019_active", "INCITE active share was 20% in 2019",
            "Fig. 2 / Sec. VII", "stated", 0.20,
            frac(Program.INCITE, 2019, AdoptionStatus.ACTIVE), abs_tol=0.005,
        ),
        _e(
            "fig2.incite_2022_active", "INCITE active share ~31% by 2022",
            "Fig. 2 / Sec. VII", "stated", 0.31,
            frac(Program.INCITE, 2022, AdoptionStatus.ACTIVE), abs_tol=0.01,
        ),
        _e(
            "fig2.incite_2022_inactive", "plus 28% inactive INCITE use in 2022",
            "Fig. 2 / Sec. VII", "stated", 0.28,
            frac(Program.INCITE, 2022, AdoptionStatus.INACTIVE), abs_tol=0.01,
        ),
        _e(
            "fig2.covid_heavy", "COVID consortium projects use AI/ML heavily",
            "Fig. 2 / Sec. III", "stated", 0.5,
            frac(Program.COVID, 2020, AdoptionStatus.ACTIVE), cmp="ge",
        ),
        _e(
            "fig2.ecp_low", "ECP projects use AI/ML less",
            "Fig. 2 / Sec. III", "stated", 0.25,
            frac(Program.ECP, 2020, AdoptionStatus.ACTIVE), cmp="le",
        ),
        _e(
            "fig2.alcc_2019_heavy",
            "a large subset of the smaller 2019-20 ALCC cohort used AI",
            "Fig. 2 / Sec. III", "stated", 0.4,
            frac(Program.ALCC, 2019, AdoptionStatus.ACTIVE), cmp="ge",
        ),
    ]


def _fig3() -> list[Expectation]:
    from repro.portfolio.taxonomy import MLMethod

    def share(method):
        return lambda ctx: ctx.method_shares[method]

    return [
        _e(
            "fig3.dl_dominant", "DL/NN methods much more prevalent than others",
            "Fig. 3 / Sec. III", "stated", True,
            lambda ctx: (
                ctx.method_shares[MLMethod.DEEP_LEARNING]
                > ctx.method_shares[MLMethod.OTHER]
                + ctx.method_shares[MLMethod.UNDETERMINED]
            ),
            cmp="true",
        ),
        _e(
            "fig3.dl_share", "calibrated DL/NN share", "Fig. 3", "estimated",
            0.60, share(MLMethod.DEEP_LEARNING), rel_tol=1e-12,
        ),
        _e(
            "fig3.other_share", "calibrated classical-ML share", "Fig. 3",
            "estimated", 0.25, share(MLMethod.OTHER), rel_tol=1e-12,
        ),
        _e(
            "fig3.undetermined_share", "calibrated undetermined share",
            "Fig. 3", "estimated", 0.15, share(MLMethod.UNDETERMINED),
            rel_tol=1e-12,
        ),
    ]


def _fig4() -> list[Expectation]:
    from repro.portfolio.taxonomy import AdoptionStatus, Domain

    def count(domain, status):
        return lambda ctx: ctx.domain_table[domain][status]

    return [
        _e(
            "fig4.top3_domains",
            "Biology, Computer Science and Materials are the top AI users",
            "Fig. 4 / Sec. III", "stated", True,
            lambda ctx: set(ctx.analytics.top_ai_domains(3)) == {
                Domain.BIOLOGY, Domain.COMPUTER_SCIENCE, Domain.MATERIALS,
            },
            cmp="true",
        ),
        _e(
            "fig4.biology_active", "calibrated Biology active count",
            "Fig. 4", "estimated", 52,
            count(Domain.BIOLOGY, AdoptionStatus.ACTIVE), cmp="exact",
            units="project-years",
        ),
        _e(
            "fig4.cs_active", "calibrated Computer Science active count",
            "Fig. 4", "estimated", 50,
            count(Domain.COMPUTER_SCIENCE, AdoptionStatus.ACTIVE), cmp="exact",
            units="project-years",
        ),
        _e(
            "fig4.materials_active", "calibrated Materials active count",
            "Fig. 4", "estimated", 40,
            count(Domain.MATERIALS, AdoptionStatus.ACTIVE), cmp="exact",
            units="project-years",
        ),
        _e(
            "fig4.engineering_inactive", "Engineering has notable inactive use",
            "Fig. 4", "estimated", 14,
            count(Domain.ENGINEERING, AdoptionStatus.INACTIVE), cmp="exact",
            units="project-years",
        ),
        _e(
            "fig4.earth_inactive", "Earth Science has notable inactive use",
            "Fig. 4", "estimated", 9,
            count(Domain.EARTH_SCIENCE, AdoptionStatus.INACTIVE), cmp="exact",
            units="project-years",
        ),
        _e(
            "fig4.fusion_inactive", "Fusion/Plasma has notable inactive use",
            "Fig. 4", "estimated", 8,
            count(Domain.FUSION_PLASMA, AdoptionStatus.INACTIVE), cmp="exact",
            units="project-years",
        ),
    ]


def _fig5() -> list[Expectation]:
    from repro.portfolio.taxonomy import Motif

    return [
        _e(
            "fig5.submodel_top", "Submodel is the most common motif",
            "Fig. 5 / Sec. III", "stated", True,
            lambda ctx: ctx.analytics.top_motifs(1) == [Motif.SUBMODEL],
            cmp="true",
        ),
        _e(
            "fig5.top5_concentration", "top five motifs cover over 3/4 of usage",
            "Fig. 5 / Sec. III", "stated", 0.75,
            lambda ctx: ctx.analytics.motif_concentration(5), cmp="gt",
        ),
        _e(
            "fig5.submodel_count", "calibrated Submodel count over the cohort",
            "Fig. 5", "estimated", 26,
            lambda ctx: ctx.motif_counts[Motif.SUBMODEL], cmp="exact",
            units="project-years",
        ),
        _e(
            "fig5.top5_calibrated", "calibrated top-5 coverage, 90/117",
            "Fig. 5", "estimated", 90 / 117,
            lambda ctx: ctx.analytics.motif_concentration(5), rel_tol=1e-12,
        ),
    ]


def _fig6() -> list[Expectation]:
    from repro.portfolio.reference import MOTIF_DOMAIN_MATRIX
    from repro.portfolio.taxonomy import Domain, Motif

    def cell(motif, domain):
        return lambda ctx: ctx.motif_matrix[motif][domain]

    return [
        _e(
            "fig6.matrix_exact",
            "the full 11x9 motif-by-domain count matrix reproduces exactly",
            "Fig. 6", "estimated", True,
            lambda ctx: all(
                ctx.motif_matrix[m][d] == MOTIF_DOMAIN_MATRIX[m][d]
                for m in MOTIF_DOMAIN_MATRIX for d in Domain
            ),
            cmp="true",
        ),
        _e(
            "fig6.engineering_submodel_peak",
            "Engineering x Submodel is the single most prominent cell",
            "Fig. 6 / Sec. III", "stated", True,
            lambda ctx: ctx.motif_matrix[Motif.SUBMODEL][Domain.ENGINEERING]
            == max(max(row.values()) for row in ctx.motif_matrix.values()),
            cmp="true",
        ),
        _e(
            "fig6.biology_no_submodel", "Biology uses no grid Submodels",
            "Fig. 6 / Sec. III", "stated", 0,
            cell(Motif.SUBMODEL, Domain.BIOLOGY), cmp="exact",
            units="project-years",
        ),
        _e(
            "fig6.cs_no_mathcs",
            "Computer Science has no math/cs-algorithm entries",
            "Fig. 6 / Sec. III", "stated", 0,
            cell(Motif.MATH_CS_ALGORITHM, Domain.COMPUTER_SCIENCE),
            cmp="exact", units="project-years",
        ),
        _e(
            "fig6.materials_md_peak", "Materials dominates the MD-potentials row",
            "Fig. 6 / Sec. III", "stated", True,
            lambda ctx: ctx.motif_matrix[Motif.MD_POTENTIAL][Domain.MATERIALS]
            == max(ctx.motif_matrix[Motif.MD_POTENTIAL].values()),
            cmp="true",
        ),
    ]


def _section4b() -> list[Expectation]:
    def flops(key):
        return lambda ctx: ctx.app_result(key)["measured_flops"]

    def eff(key):
        return lambda ctx: ctx.app_result(key)["measured_efficiency"]

    return [
        _e(
            "section4b.kurth.peak_flops",
            "Kurth climate segmentation: 1.13 EF peak at 4560 nodes",
            "Sec. IV-B.1", "stated", 1.13e18, flops("kurth"),
            rel_tol=0.03, units="FLOP/s",
        ),
        _e(
            "section4b.kurth.efficiency",
            "Kurth parallel efficiency 90.7%",
            "Sec. IV-B.1", "stated", 0.907, eff("kurth"), abs_tol=0.02,
        ),
        _e(
            "section4b.yang.peak_flops",
            "Yang PI-GAN: over 1.2 EF at 4584 nodes",
            "Sec. IV-B.2", "stated", 1.15e18, flops("yang"),
            cmp="gt", units="FLOP/s",
        ),
        _e(
            "section4b.yang.efficiency", "Yang efficiency 93%",
            "Sec. IV-B.2", "stated", 0.93, eff("yang"), abs_tol=0.02,
        ),
        _e(
            "section4b.laanait.peak_flops",
            "Laanait microscopy inversion: 2.15 EF peak at 4600 nodes",
            "Sec. IV-B.3", "stated", 2.15e18, flops("laanait"),
            rel_tol=0.03, units="FLOP/s",
        ),
        _e(
            "section4b.laanait.global_batch",
            "Laanait global batch size 27,600",
            "Sec. IV-B.3", "stated", 27600,
            lambda ctx: ctx.app_global_batch("laanait"), cmp="exact",
            units="samples",
        ),
        _e(
            "section4b.khan.efficiency",
            "Khan gravitational waves: 80% efficiency, 8 -> 1024 nodes",
            "Sec. IV-B.4", "stated", 0.80, eff("khan"), abs_tol=0.03,
        ),
        _e(
            "section4b.blanchard.peak_flops",
            "Blanchard SMILES-BERT: 603 PF peak at 4032 nodes",
            "Sec. IV-B.5", "stated", 603e15, flops("blanchard"),
            rel_tol=0.03, units="FLOP/s",
        ),
        _e(
            "section4b.blanchard.efficiency_with_io",
            "Blanchard scaling efficiency 68% including I/O",
            "Sec. IV-B.5", "stated", 0.68, eff("blanchard"), abs_tol=0.03,
        ),
        _e(
            "section4b.blanchard.efficiency_without_io",
            "Blanchard scaling efficiency 83.3% without I/O costs",
            "Sec. IV-B.5", "stated", 0.833,
            lambda ctx: ctx.blanchard_no_io["measured_efficiency"],
            abs_tol=0.03,
        ),
        _e(
            "section4b.blanchard.max_global_batch",
            "Blanchard global batch up to 5.8 million",
            "Sec. IV-B.5", "stated", 5.8e6,
            lambda ctx: ctx.app_global_batch("blanchard"),
            rel_tol=0.01, units="samples",
        ),
        _e(
            "section4b.khan_comm_dominated",
            "Khan is the only communication-dominated app of the five",
            "Sec. IV-B", "structural", True,
            lambda ctx: ctx.app_result("khan")["breakdown"].comm_fraction
            == max(
                ctx.app_result(k)["breakdown"].comm_fraction
                for k in ("kurth", "yang", "laanait", "khan", "blanchard")
            ),
            cmp="true",
        ),
        _e(
            "section4b.blanchard_io_penalised",
            "Blanchard (GPFS-fed) is the only I/O-penalised app",
            "Sec. IV-B / VI-B", "structural", True,
            lambda ctx: (
                ctx.app_result("blanchard")["breakdown"].io_fraction > 0.05
                and all(
                    ctx.app_result(k)["breakdown"].io_fraction < 0.01
                    for k in ("kurth", "yang", "laanait", "khan")
                )
            ),
            cmp="true",
        ),
    ]


def _section6b() -> list[Expectation]:
    return [
        _e(
            "section6b.read_requirement",
            "full-Summit ResNet-50 needs ~20 TB/s aggregate read",
            "Sec. VI-B", "stated", 20e12,
            lambda ctx: ctx.io_report["required"], rel_tol=0.02, units="B/s",
        ),
        _e(
            "section6b.gpfs_read_bandwidth", "GPFS read bandwidth is 2.5 TB/s",
            "Sec. VI-B", "stated", 2.5e12,
            lambda ctx: ctx.io_report["shared_fs"], rel_tol=1e-12, units="B/s",
        ),
        _e(
            "section6b.nvme_read_bandwidth",
            "node-local NVMe aggregates to over 27 TB/s",
            "Sec. VI-B", "stated", 27e12,
            lambda ctx: ctx.io_report["nvme"], cmp="gt", units="B/s",
        ),
        _e(
            "section6b.gpfs_feasible", "GPFS cannot feed full-Summit ResNet-50",
            "Sec. VI-B", "stated", False,
            lambda ctx: ctx.io_report["shared_fs_feasible"], cmp="exact",
        ),
        _e(
            "section6b.nvme_feasible", "NVMe can feed full-Summit ResNet-50",
            "Sec. VI-B", "stated", True,
            lambda ctx: ctx.io_report["nvme_feasible"], cmp="exact",
        ),
        _e(
            "section6b.resnet50_message",
            "ResNet-50 allreduce message is about 100 MB",
            "Sec. VI-B", "stated", 100e6,
            lambda ctx: ctx.gradient_bytes("resnet50"), rel_tol=0.05,
            units="bytes",
        ),
        _e(
            "section6b.bert_large_message",
            "BERT-large allreduce message is about 1.4 GB",
            "Sec. VI-B", "stated", 1.4e9,
            lambda ctx: ctx.gradient_bytes("bert_large"), rel_tol=0.05,
            units="bytes",
        ),
        _e(
            "section6b.resnet50_allreduce_time",
            "ResNet-50 allreduce takes roughly 8 ms",
            "Sec. VI-B", "stated", 8e-3,
            lambda ctx: ctx.allreduce_estimate("resnet50"), rel_tol=0.05,
            units="s",
        ),
        _e(
            "section6b.bert_large_allreduce_time",
            "BERT-large allreduce takes roughly 110 ms",
            "Sec. VI-B", "stated", 110e-3,
            lambda ctx: ctx.allreduce_estimate("bert_large"), rel_tol=0.05,
            units="s",
        ),
        _e(
            "section6b.resnet50_comm_hidden",
            "ResNet-50 comfortably hides its allreduce behind compute",
            "Sec. VI-B", "stated", 0.15,
            lambda ctx: ctx.comm_compute_ratio("resnet50", 128), cmp="lt",
        ),
        _e(
            "section6b.bert_large_comm_close",
            "BERT-large allreduce is 'close to' its per-batch compute",
            "Sec. VI-B", "stated", True,
            lambda ctx: 0.3 < ctx.comm_compute_ratio("bert_large", 32) < 1.0,
            cmp="true",
        ),
        _e(
            "section6b.beyond_bert_comm_bound",
            "models larger than BERT-large become communication-bound",
            "Sec. VI-B", "stated", 0.5,
            lambda ctx: ctx.beyond_bert_comm_fraction, cmp="gt",
        ),
        _e(
            "section6b.staging_exceeds_epoch_read",
            "NVMe staging 'costs adding up' dominates one epoch's reads",
            "Sec. VI-B", "stated", True,
            lambda ctx: ctx.staging_costs[0] > ctx.staging_costs[1],
            cmp="true",
        ),
        _e(
            "section6b.reshuffle_exceeds_epoch_read",
            "per-epoch global reshuffling is expensive vs the local read",
            "Sec. VI-B", "stated", True,
            lambda ctx: ctx.staging_costs[2] > ctx.staging_costs[1],
            cmp="true",
        ),
    ]


def _section5() -> list[Expectation]:
    return [
        _e(
            "section5.materials.tc_error",
            "surrogate MC locates the order-disorder transition within 5%",
            "Sec. V-A", "structural", 0.05,
            lambda ctx: ctx.materials.tc_relative_error, cmp="lt",
        ),
        _e(
            "section5.materials.expensive_calls",
            "first-principles oracle called only for the training set",
            "Sec. V-A", "structural", 32,
            lambda ctx: ctx.materials.expensive_calls, cmp="exact",
            units="calls",
        ),
        _e(
            "section5.materials.call_reduction",
            "surrogate displaces >10x the expensive evaluations",
            "Sec. V-A", "structural", 10,
            lambda ctx: ctx.materials.call_reduction, cmp="gt", units="x",
        ),
        _e(
            "section5.materials.bic_selects_nn",
            "BIC model selection finds exactly the nearest-neighbour term",
            "Sec. V-A", "structural", True,
            lambda ctx: ctx.materials.ce_terms == (1,), cmp="true",
        ),
        _e(
            "section5.biology.event_detected",
            "the rare mesoscale event is detected as a latent outlier",
            "Sec. V-B", "structural", True,
            lambda ctx: ctx.biology.event_detected, cmp="true",
        ),
        _e(
            "section5.biology.outlier_ratio",
            "event outlier score stands >3x above the baseline",
            "Sec. V-B", "structural", 3.0,
            lambda ctx: ctx.biology.event_score_ratio, cmp="gt", units="x",
        ),
        _e(
            "section5.biology.refinements",
            "exactly one atomistic refinement is triggered",
            "Sec. V-B", "structural", 1,
            lambda ctx: ctx.biology.refinements_triggered, cmp="exact",
        ),
        _e(
            "section5.biology.campaign_beats_serial",
            "cross-facility orchestration beats serial execution",
            "Sec. V-B", "structural", True,
            lambda ctx: ctx.biology_campaign[0] < ctx.biology_campaign[1],
            cmp="true",
        ),
        _e(
            "section5.drug.loop_beats_docking",
            "the surrogate loop enriches binders at least as well as docking",
            "Sec. V-C", "structural", True,
            lambda ctx: ctx.drug.enrichment >= ctx.drug.enrichment_docking,
            cmp="true",
        ),
        _e(
            "section5.drug.loop_beats_random",
            "the surrogate loop beats random selection at equal MD budget",
            "Sec. V-C", "structural", True,
            lambda ctx: ctx.drug.enrichment > ctx.drug.enrichment_random,
            cmp="true",
        ),
    ]


def build_registry() -> tuple[Expectation, ...]:
    """The full expectation registry, in paper order. Keys are unique."""
    entries = (
        *_table1(), *_table2(), *_table3(),
        *_fig1(), *_fig2(), *_fig3(), *_fig4(), *_fig5(), *_fig6(),
        *_section4b(), *_section5(), *_section6b(),
    )
    seen: set[str] = set()
    for e in entries:
        if e.key in seen:
            raise ConfigurationError(f"duplicate registry key {e.key!r}")
        seen.add(e.key)
    return entries


def expectation_sections() -> tuple[str, ...]:
    """Registry sections in paper order, without duplicates."""
    out: dict[str, None] = {}
    for e in build_registry():
        out.setdefault(e.section, None)
    return tuple(out)


def get_expectation(key: str) -> Expectation:
    """Look one expectation up by key; raises on unknown keys."""
    for e in build_registry():
        if e.key == key:
            return e
    raise ConfigurationError(f"no expectation registered under {key!r}")
