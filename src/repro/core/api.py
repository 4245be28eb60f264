"""Facade API tying the substrates together.

Three entry points mirror the paper's three quantitative strands:

- :class:`SummitSimulator` — the machine + Section VI-B analytic models;
- :class:`ScalingStudyRunner` — Section IV-B style scaling studies;
- :class:`UsageSurvey` — the Section III survey pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.cost import crossover_sweep
from repro.cost.sweep import SweepResult
from repro.errors import ConfigurationError
from repro.machine.spec import SUMMIT, MachineSpec
from repro.models.catalog import get_model
from repro.network.collectives import paper_allreduce_estimate, ring_allreduce_time
from repro.portfolio.analytics import PortfolioAnalytics
from repro.portfolio.generate import generate_portfolio
from repro.storage.io_model import io_feasibility, read_requirement
from repro.training.job import TrainingJob
from repro.training.parallelism import DataSource, ParallelismPlan
from repro.training.scaling import ScalingPoint, ScalingStudy


@dataclass
class SummitSimulator:
    """The Summit machine model plus the Section VI-B analytics.

    Despite the name (kept for API stability), the simulator runs against
    any registry machine (``SummitSimulator(machine=FRONTIER_LIKE)``): every
    analytic — allreduce estimates, crossover surfaces, I/O feasibility —
    uses that machine's links and storage tiers.

    >>> sim = SummitSimulator()
    >>> round(sim.machine.peak_flops() / 1e18, 1)   # "over 3 AI-ExaOps"
    3.5
    >>> t = sim.allreduce_estimate("bert_large")
    >>> 0.10 < t < 0.12   # "roughly ... 110 ms"
    True
    """

    machine: MachineSpec = SUMMIT

    def allreduce_estimate(self, model_key: str) -> float:
        """The paper's bandwidth-only allreduce estimate for a model's
        gradient (Section VI-B)."""
        model = get_model(model_key)
        return paper_allreduce_estimate(
            model.gradient_bytes, self.machine.interconnect
        )

    def allreduce_detailed(self, model_key: str, n_nodes: int) -> float:
        """Full ring-allreduce cost, latency terms included."""
        model = get_model(model_key)
        self.machine.require_nodes(n_nodes)
        return ring_allreduce_time(
            n_nodes, model.gradient_bytes, self.machine.interconnect
        )

    def crossover_surface(
        self, message_bytes, node_counts, compute_time: float
    ) -> SweepResult:
        """Section VI-B comm-vs-compute crossover surface on this machine's
        injection link; ``message_bytes`` and ``node_counts`` may each be a
        sequence (a grid axis)."""
        link = self.machine.interconnect
        return crossover_sweep(
            message_bytes, node_counts, link.total_bandwidth,
            latency=link.latency, compute_time=compute_time,
        )

    def io_report(self, model_key: str, n_nodes: int | None = None) -> dict:
        """The Section VI-B read-bandwidth feasibility analysis."""
        model = get_model(model_key)
        machine = self.machine
        n = machine.node_count if n_nodes is None else n_nodes
        machine.require_nodes(n)
        gpus = n * machine.gpus_per_node
        samples_per_s = model.samples_per_second(machine.gpus)
        req = read_requirement(samples_per_s, model.bytes_per_sample, gpus)
        nvme = machine.nvme
        if nvme is None:
            raise ConfigurationError(
                f"{machine.name} nodes have no NVMe burst buffer to compare "
                "with the shared filesystem"
            )
        shared_fs = machine.shared_fs
        feas = io_feasibility(req, shared_fs, nvme, n, random_access=False)
        return {
            "required": req.required_bandwidth,
            "shared_fs": shared_fs.aggregate_read_bandwidth,
            "nvme": nvme.aggregate_read_bandwidth(n),
            "shared_fs_feasible": feas.shared_fs_feasible,
            "nvme_feasible": feas.nvme_feasible,
            "summary": (
                f"{model.name}: needs {units.format_rate(req.required_bandwidth)}; "
                f"shared FS {units.format_rate(shared_fs.aggregate_read_bandwidth)} "
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
    machine: MachineSpec = SUMMIT

    def run(self, node_counts: list[int], strong: bool = False) -> list[ScalingPoint]:
        base = TrainingJob(
            model=get_model(self.model_key),
            machine=self.machine,
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
            points, title=f"{self.model_key} {mode} scaling on {self.machine.name}"
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
