"""ResilienceReport: the goodput-vs-throughput accounting of a failing run.

Aggregates what every layer of the stack reports under failure injection —
wall-clock, useful work, failures, retries, checkpoint and lost time — into
the metrics that matter for time-to-solution at scale: goodput fraction,
lost node-hours, checkpoint overhead, and (when an analytical Young/Daly
prediction is supplied) the empirical-vs-analytical agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.errors import ConfigurationError

from repro.resilience.restart import RestartStats
from repro.resilience.validate import young_daly_error


@dataclass(frozen=True)
class ResilienceReport:
    """Resilience accounting for one campaign/job/workflow."""

    name: str
    n_nodes: int
    node_mtbf_seconds: float
    wall_seconds: float
    useful_seconds: float
    n_failures: int = 0
    n_retries: int = 0
    n_checkpoints: int = 0
    checkpoint_seconds: float = 0.0
    lost_seconds: float = 0.0
    analytical_overhead: float | None = None
    raw_flops: float | None = None  # failure-free sustained FLOP/s, if known

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.wall_seconds < 0 or self.useful_seconds < 0:
            raise ConfigurationError("times must be non-negative")
        if self.useful_seconds > self.wall_seconds * (1 + 1e-12):
            raise ConfigurationError("useful work cannot exceed wall-clock")

    @classmethod
    def from_restart(
        cls,
        name: str,
        n_nodes: int,
        node_mtbf_seconds: float,
        stats: RestartStats,
        analytical_overhead: float | None = None,
        raw_flops: float | None = None,
    ) -> "ResilienceReport":
        return cls(
            name=name,
            n_nodes=n_nodes,
            node_mtbf_seconds=node_mtbf_seconds,
            wall_seconds=stats.wall_seconds,
            useful_seconds=stats.work_seconds,
            n_failures=stats.n_failures,
            n_checkpoints=stats.n_checkpoints,
            checkpoint_seconds=stats.checkpoint_seconds,
            lost_seconds=stats.lost_seconds,
            analytical_overhead=analytical_overhead,
            raw_flops=raw_flops,
        )

    # -- derived metrics ---------------------------------------------------------

    @property
    def overhead_fraction(self) -> float:
        """Simulated checkpoint + rework overhead fraction."""
        if self.wall_seconds == 0:
            return 0.0
        return (self.wall_seconds - self.useful_seconds) / self.wall_seconds

    @property
    def goodput_fraction(self) -> float:
        return 1.0 - self.overhead_fraction

    @property
    def goodput_flops(self) -> float | None:
        """Raw sustained FLOP/s derated by the resilience overhead."""
        if self.raw_flops is None:
            return None
        return self.raw_flops * self.goodput_fraction

    @property
    def lost_node_hours(self) -> float:
        return self.lost_seconds * self.n_nodes / 3600.0

    @property
    def checkpoint_node_hours(self) -> float:
        return self.checkpoint_seconds * self.n_nodes / 3600.0

    @property
    def system_mtbf(self) -> float:
        return self.node_mtbf_seconds / self.n_nodes

    def agreement(self) -> float | None:
        """|empirical - analytical| / analytical, when a prediction exists."""
        if self.analytical_overhead is None:
            return None
        return young_daly_error(
            self.overhead_fraction, self.analytical_overhead
        )

    def matches_analytical(self, tolerance: float = 0.2) -> bool:
        agreement = self.agreement()
        if agreement is None:
            raise ConfigurationError("no analytical prediction to compare to")
        return agreement <= tolerance

    # -- presentation -------------------------------------------------------------

    def format(self) -> str:
        lines = [
            f"ResilienceReport — {self.name}",
            f"  nodes                {self.n_nodes}",
            f"  node MTBF            {self.node_mtbf_seconds / (365 * 24 * 3600):.1f} y"
            f"  (job-wide MTBF {units.format_time(self.system_mtbf)})",
            f"  wall-clock           {units.format_time(self.wall_seconds)}",
            f"  useful work          {units.format_time(self.useful_seconds)}"
            f"  (goodput {self.goodput_fraction:.1%})",
            f"  failures             {self.n_failures}"
            f"  (retries {self.n_retries})",
            f"  checkpoints          {self.n_checkpoints}"
            f"  ({self.checkpoint_node_hours:.1f} node-h)",
            f"  lost work            {self.lost_node_hours:.1f} node-h",
            f"  simulated overhead   {self.overhead_fraction:.2%}",
        ]
        if self.analytical_overhead is not None:
            agreement = self.agreement()
            assert agreement is not None
            verdict = "OK" if self.matches_analytical() else "MISMATCH"
            lines.append(
                f"  Young/Daly overhead  {self.analytical_overhead:.2%}"
                f"  (rel. err {agreement:.1%} [{verdict}])"
            )
        if self.raw_flops is not None:
            goodput = self.goodput_flops
            assert goodput is not None
            lines.append(
                f"  raw throughput       {self.raw_flops / 1e15:.2f} PFLOP/s"
            )
            lines.append(
                f"  expected goodput     {goodput / 1e15:.2f} PFLOP/s"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()
