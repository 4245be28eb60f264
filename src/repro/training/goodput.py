"""Expected goodput of a distributed training job under failures.

Combines the step-time simulator with the Young/Daly checkpoint model and
the event-driven resilience layer: a :class:`GoodputModel` takes a
:class:`~repro.training.job.TrainingJob`, derives (or is told) the
checkpoint payload per node, prices the write on either storage tier, and
reports what fraction of the job's raw sustained throughput survives
checkpointing and failure-rework at the job's width — the paper's point
that full-machine time-to-solution is a resilience number, not a peak one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cost import CheckpointCostModel, CostBreakdown, kernels
from repro.errors import ConfigurationError
from repro.resilience.faults import DEFAULT_NODE_MTBF_SECONDS
from repro.resilience.report import ResilienceReport
from repro.resilience.restart import RestartStats, simulate_checkpoint_restart
from repro.resilience.validate import DEFAULT_WORK_MTBF_MULTIPLE
from repro.storage.burst_buffer import BurstBuffer
from repro.storage.checkpoint import CheckpointPlan
from repro.storage.filesystem import SharedFileSystem
from repro.training.job import _OPTIMIZER_STATE_BYTES_PER_PARAM, TrainingJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.spec import MachineSpec


def _summit_nvme() -> BurstBuffer:
    from repro.storage.burst_buffer import SUMMIT_NVME

    return SUMMIT_NVME


def _summit_gpfs() -> SharedFileSystem:
    from repro.storage.filesystem import SUMMIT_GPFS

    return SUMMIT_GPFS

#: Default checkpoint payload per node for campaign-level reports (30 GB):
#: real jobs persist framework and data-pipeline state alongside the model,
#: so the sharded model weights alone would be unrealistically small.
DEFAULT_STATE_BYTES_PER_NODE = 30e9


@dataclass(frozen=True)
class GoodputModel:
    """Resilience-aware throughput for one training configuration.

    ``state_bytes_per_node`` is the checkpoint payload each node writes;
    when ``None`` it is derived from the model (FP16 weights + FP32 master
    weights and optimizer moments, sharded across the job's nodes) — real
    jobs usually also persist framework and data-loader state, so a larger
    explicit payload is often the honest choice.
    """

    job: TrainingJob
    node_mtbf_seconds: float = DEFAULT_NODE_MTBF_SECONDS
    state_bytes_per_node: float | None = None
    nvme: BurstBuffer | None = field(default_factory=_summit_nvme)
    shared_fs: SharedFileSystem = field(default_factory=_summit_gpfs)

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not 0.0 < self.node_mtbf_seconds < math.inf:
            raise ConfigurationError("node MTBF must be positive and finite")
        if self.state_bytes_per_node is not None and not (
            0.0 < self.state_bytes_per_node < math.inf
        ):
            raise ConfigurationError("state size must be positive and finite")

    @classmethod
    def for_machine(
        cls,
        job: TrainingJob,
        machine: "MachineSpec | str | None" = None,
        **kwargs,
    ) -> "GoodputModel":
        """A goodput model whose storage tiers come from ``machine``
        (default Summit). Machines without node-local NVMe get
        ``nvme=None``; the ``"nvme"`` checkpoint tier then raises."""
        from repro.machine.spec import resolve_machine

        spec = resolve_machine(machine)
        kwargs.setdefault("nvme", spec.nvme)
        kwargs.setdefault("shared_fs", spec.shared_fs)
        return cls(job=job, **kwargs)

    def _require_nvme(self) -> BurstBuffer:
        if self.nvme is None:
            raise ConfigurationError(
                "this machine has no node-local NVMe tier; use tier='shared_fs'"
            )
        return self.nvme

    # -- checkpoint configuration ----------------------------------------------

    def checkpoint_bytes_per_node(self) -> float:
        if self.state_bytes_per_node is not None:
            return self.state_bytes_per_node
        total = self.job.model.parameters * (
            2.0 + _OPTIMIZER_STATE_BYTES_PER_PARAM
        )
        return total / self.job.n_nodes

    def plan(self) -> CheckpointPlan:
        return CheckpointPlan(
            state_bytes_per_node=self.checkpoint_bytes_per_node(),
            n_nodes=self.job.n_nodes,
            node_mtbf_seconds=self.node_mtbf_seconds,
        )

    def write_time(self, tier: str = "nvme") -> float:
        plan = self.plan()
        if tier == "nvme":
            return plan.write_time_nvme(self._require_nvme())
        if tier == "shared_fs":
            return plan.write_time_shared(self.shared_fs)
        raise ConfigurationError(
            f"unknown storage tier {tier!r}; use 'nvme' or 'shared_fs'"
        )

    def optimal_interval(self, tier: str = "nvme") -> float:
        return self.plan().optimal_interval(self.write_time(tier))

    def _write_rate(self, tier: str) -> float:
        if tier == "nvme":
            return self._require_nvme().write_bandwidth
        if tier == "shared_fs":
            return kernels.shared_pool_bandwidth(
                self.shared_fs.aggregate_write_bandwidth,
                self.shared_fs.per_client_read_bandwidth,
                self.job.n_nodes,
            )
        raise ConfigurationError(
            f"unknown storage tier {tier!r}; use 'nvme' or 'shared_fs'"
        )

    def breakdown(self, tier: str = "nvme") -> CostBreakdown:
        """Structured checkpoint-economics breakdown for one tier, via the
        :class:`~repro.cost.CheckpointCostModel` (sweepable over node-count
        or MTBF axes with :func:`repro.cost.sweep`)."""
        return CheckpointCostModel().evaluate(
            state_bytes_per_node=self.checkpoint_bytes_per_node(),
            write_rate=self._write_rate(tier),
            n_nodes=self.job.n_nodes,
            node_mtbf_seconds=self.node_mtbf_seconds,
        )

    # -- analytic goodput --------------------------------------------------------

    def overhead_fraction(self, tier: str = "nvme") -> float:
        """Young/Daly checkpoint + rework overhead at the optimal interval."""
        return self.plan().overhead_fraction(self.write_time(tier))

    def goodput_fraction(self, tier: str = "nvme") -> float:
        return 1.0 - self.overhead_fraction(tier)

    def goodput_flops(self, tier: str = "nvme") -> float:
        """Sustained FLOP/s after checkpoint + failure-rework derating."""
        return self.job.sustained_flops() * self.goodput_fraction(tier)

    # -- empirical simulation -----------------------------------------------------

    def simulate(
        self,
        tier: str = "nvme",
        seed: int = 0,
        work_seconds: float | None = None,
        telemetry=None,
    ) -> RestartStats:
        """Event-driven checkpoint-restart run at this job's parameters.

        An optional :class:`~repro.telemetry.Telemetry` handle is passed
        through to :func:`simulate_checkpoint_restart`, capturing segment /
        checkpoint / restart spans and fault instants for this run.
        """
        plan = self.plan()
        if work_seconds is None:
            work_seconds = DEFAULT_WORK_MTBF_MULTIPLE * plan.system_mtbf
        return simulate_checkpoint_restart(
            work_seconds=work_seconds,
            interval=self.optimal_interval(tier),
            write_time=self.write_time(tier),
            n_nodes=self.job.n_nodes,
            node_mtbf_seconds=self.node_mtbf_seconds,
            seed=seed,
            telemetry=telemetry,
        )

    def simulate_ensemble(
        self,
        tier: str = "nvme",
        seed: int = 0,
        n_replicas: int = 8,
        n_jobs: int = 1,
        work_seconds: float | None = None,
    ) -> list[RestartStats]:
        """A Monte-Carlo ensemble of empirical runs over child seeds.

        Replica ``i`` always gets the ``i``-th ``SeedSequence`` child of
        ``seed``, so the returned list is identical at every ``n_jobs`` —
        fanning out over a process pool changes the wall-clock, never the
        statistics. Averaging ``overhead_fraction`` across replicas tightens
        the stochastic error bar around the Young/Daly expectation.
        """
        from repro.resilience.restart import restart_ensemble

        plan = self.plan()
        if work_seconds is None:
            work_seconds = DEFAULT_WORK_MTBF_MULTIPLE * plan.system_mtbf
        return restart_ensemble(
            work_seconds=work_seconds,
            interval=self.optimal_interval(tier),
            write_time=self.write_time(tier),
            n_nodes=self.job.n_nodes,
            node_mtbf_seconds=self.node_mtbf_seconds,
            n_replicas=n_replicas,
            seed=seed,
            n_jobs=n_jobs,
        )

    def report(
        self,
        name: str,
        tier: str = "nvme",
        empirical: bool = True,
        seed: int = 0,
        work_seconds: float | None = None,
        telemetry=None,
    ) -> ResilienceReport:
        """Build the :class:`ResilienceReport` for this configuration.

        ``empirical=True`` runs the event-driven simulation so the report
        carries measured overhead next to the Young/Daly prediction;
        ``empirical=False`` fills the report with the analytic expectation.
        A ``telemetry`` handle instruments the empirical run (ignored on
        the analytic path, which performs no simulation).
        """
        analytical = self.overhead_fraction(tier)
        raw = self.job.sustained_flops()
        if empirical:
            stats = self.simulate(
                tier, seed=seed, work_seconds=work_seconds,
                telemetry=telemetry,
            )
            return ResilienceReport.from_restart(
                name=name,
                n_nodes=self.job.n_nodes,
                node_mtbf_seconds=self.node_mtbf_seconds,
                stats=stats,
                analytical_overhead=analytical,
                raw_flops=raw,
            )
        plan = self.plan()
        work = (
            work_seconds
            if work_seconds is not None
            else DEFAULT_WORK_MTBF_MULTIPLE * plan.system_mtbf
        )
        tau = self.optimal_interval(tier)
        delta = self.write_time(tier)
        wall = work / (1.0 - analytical)
        n_checkpoints = int(work / tau)
        checkpoint_seconds = n_checkpoints * delta
        return ResilienceReport(
            name=name,
            n_nodes=self.job.n_nodes,
            node_mtbf_seconds=self.node_mtbf_seconds,
            wall_seconds=wall,
            useful_seconds=work,
            n_failures=int(round(wall / plan.system_mtbf)),
            n_checkpoints=n_checkpoints,
            checkpoint_seconds=checkpoint_seconds,
            lost_seconds=max(0.0, wall - work - checkpoint_seconds),
            analytical_overhead=analytical,
            raw_flops=raw,
        )
