"""Facade API tying the substrates together.

Three entry points mirror the paper's three quantitative strands:

- :class:`SummitSimulator` — the machine + Section VI-B analytic models;
- :class:`ScalingStudyRunner` — Section IV-B style scaling studies;
- :class:`UsageSurvey` — the Section III survey pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import units
from repro.cost import crossover_sweep
from repro.cost.sweep import SweepResult
from repro.errors import ConfigurationError
from repro.machine.summit import summit
from repro.machine.system import System
from repro.models.catalog import get_model
from repro.network.collectives import paper_allreduce_estimate, ring_allreduce_time
from repro.portfolio.analytics import PortfolioAnalytics
from repro.portfolio.generate import generate_portfolio
from repro.storage.io_model import io_feasibility, read_requirement
from repro.training.job import TrainingJob
from repro.training.parallelism import DataSource, ParallelismPlan
from repro.training.scaling import ScalingPoint, ScalingStudy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.spec import MachineSpec


@dataclass
class SummitSimulator:
    """The Summit machine model plus the Section VI-B analytics.

    Despite the name (kept for API stability), the simulator runs against
    any machine: build one with :meth:`for_machine` and every analytic —
    allreduce estimates, step sweeps, crossover surfaces, I/O feasibility —
    uses that machine's links and storage tiers.

    >>> sim = SummitSimulator()
    >>> round(sim.system.peak_flops() / 1e18, 1)   # "over 3 AI-ExaOps"
    3.5
    >>> t = sim.allreduce_estimate("bert_large")
    >>> 0.10 < t < 0.12   # "roughly ... 110 ms"
    True
    """

    system: System = field(default_factory=lambda: summit())

    @classmethod
    def for_machine(
        cls, machine: "MachineSpec | str | None" = None
    ) -> "SummitSimulator":
        """A simulator over a registry machine (name or spec; default
        Summit — bit-identical to ``SummitSimulator()`` for the analytics,
        which only read the main partition)."""
        if machine is None:
            return cls()
        from repro.machine.spec import resolve_machine

        return cls(system=resolve_machine(machine).system())

    def allreduce_estimate(self, model_key: str) -> float:
        """The paper's bandwidth-only allreduce estimate for a model's
        gradient (Section VI-B)."""
        model = get_model(model_key)
        return paper_allreduce_estimate(model.gradient_bytes, self.system.interconnect)

    def allreduce_detailed(self, model_key: str, n_nodes: int) -> float:
        """Full ring-allreduce cost, latency terms included."""
        model = get_model(model_key)
        self.system.require_nodes(n_nodes)
        return ring_allreduce_time(n_nodes, model.gradient_bytes, self.system.interconnect)

    def crossover_surface(
        self,
        message_bytes,
        node_counts,
        compute_time: float,
        bandwidth=None,
    ) -> SweepResult:
        """Section VI-B comm-vs-compute crossover surface on this machine.

        Any of ``message_bytes`` / ``node_counts`` / ``bandwidth`` may be a
        sequence (a grid axis); ``bandwidth`` defaults to the system
        interconnect's aggregate injection bandwidth.
        """
        link = self.system.interconnect
        return crossover_sweep(
            message_bytes,
            node_counts,
            link.total_bandwidth if bandwidth is None else bandwidth,
            latency=link.latency,
            compute_time=compute_time,
        )

    def io_report(self, model_key: str, n_nodes: int | None = None) -> dict:
        """The Section VI-B read-bandwidth feasibility analysis."""
        model = get_model(model_key)
        n = self.system.node_count if n_nodes is None else n_nodes
        self.system.require_nodes(n)
        gpus = n * self.system.node.gpu_count
        samples_per_s = model.samples_per_second(self.system.node.gpus)
        req = read_requirement(samples_per_s, model.bytes_per_sample, gpus)
        nvme = self.system.nvme
        if nvme is None or self.system.shared_fs is None:
            raise ConfigurationError("system lacks an NVMe tier or shared FS")
        feas = io_feasibility(
            req, self.system.shared_fs, nvme, n, random_access=False
        )
        return {
            "required": req.required_bandwidth,
            "shared_fs": self.system.shared_fs.aggregate_read_bandwidth,
            "nvme": nvme.aggregate_read_bandwidth(n),
            "shared_fs_feasible": feas.shared_fs_feasible,
            "nvme_feasible": feas.nvme_feasible,
            "summary": (
                f"{model.name}: needs {units.format_rate(req.required_bandwidth)}; "
                f"shared FS {units.format_rate(self.system.shared_fs.aggregate_read_bandwidth)} "
                f"({'ok' if feas.shared_fs_feasible else 'insufficient'}), "
                f"NVMe {units.format_rate(nvme.aggregate_read_bandwidth(n))} "
                f"({'ok' if feas.nvme_feasible else 'insufficient'})"
            ),
        }


@dataclass
class ScalingStudyRunner:
    """Convenience wrapper: model key + plan -> scaling table."""

    model_key: str
    plan: ParallelismPlan
    data_source: DataSource = DataSource.NVME
    system: System = field(default_factory=lambda: summit(include_high_mem=False))

    @classmethod
    def for_machine(
        cls,
        model_key: str,
        plan: ParallelismPlan,
        machine: "MachineSpec | str | None" = None,
        data_source: DataSource = DataSource.NVME,
    ) -> "ScalingStudyRunner":
        """A runner whose system comes from the machine registry."""
        if machine is None:
            return cls(model_key=model_key, plan=plan, data_source=data_source)
        from repro.machine.spec import resolve_machine

        return cls(
            model_key=model_key,
            plan=plan,
            data_source=data_source,
            system=resolve_machine(machine).system(),
        )

    def run(self, node_counts: list[int], strong: bool = False) -> list[ScalingPoint]:
        base = TrainingJob(
            model=get_model(self.model_key),
            system=self.system,
            n_nodes=min(node_counts),
            plan=self.plan,
            data_source=self.data_source,
        )
        study = ScalingStudy(base)
        if strong:
            return study.strong_scaling(node_counts)
        return study.weak_scaling(node_counts)

    def table(self, node_counts: list[int], strong: bool = False) -> str:
        points = self.run(node_counts, strong=strong)
        mode = "strong" if strong else "weak"
        return ScalingStudy.table(
            points, title=f"{self.model_key} {mode} scaling on {self.system.name}"
        )


class UsageSurvey:
    """The Section III survey, end to end.

    >>> survey = UsageSurvey.calibrated()
    >>> active = survey.analytics.overall_usage()
    >>> 0.30 < list(active.values())[0] < 0.35   # "1/3 ... actively used"
    True
    """

    def __init__(self, analytics: PortfolioAnalytics):
        self.analytics = analytics

    @classmethod
    def calibrated(cls, seed: int = 2022) -> "UsageSurvey":
        """Survey over the paper-calibrated synthetic portfolio."""
        return cls(PortfolioAnalytics(generate_portfolio(seed=seed)))

    def report(self) -> str:
        from repro.portfolio.report import render_all

        return render_all(self.analytics)
