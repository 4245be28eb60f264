"""Empirical-vs-analytical validation of the Young/Daly checkpoint model.

``CheckpointPlan.overhead_fraction`` is a first-order closed form; nothing
in the seed codebase ever checked it against an actual failure process.
:func:`validate_young_daly` runs the event-driven checkpoint-restart
simulation at the plan's parameters and reports how far the measured
overhead lands from the analytical prediction — the acceptance gate is
agreement within 20 % in the regime where the model's assumptions hold
(``write_time << interval << system MTBF``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.storage.checkpoint import CheckpointPlan

from repro.resilience.restart import RestartStats, simulate_checkpoint_restart

#: Default useful-work length, in units of the job's system MTBF. Long
#: enough that the run accumulates O(100) failures and the stochastic
#: rework term converges to its expectation.
DEFAULT_WORK_MTBF_MULTIPLE = 150.0


def young_daly_error(empirical: float, analytical: float) -> float:
    """|empirical - analytical| / analytical overhead fraction.

    A zero prediction is matched exactly by a zero measurement and missed
    infinitely by anything else.
    """
    if analytical == 0:
        return 0.0 if empirical == 0 else float("inf")
    return abs(empirical - analytical) / analytical


@dataclass(frozen=True)
class ValidationResult:
    """One empirical-vs-analytical comparison point."""

    analytical_overhead: float
    empirical_overhead: float
    tolerance: float
    interval: float
    write_time: float
    system_mtbf: float
    stats: RestartStats

    @property
    def relative_error(self) -> float:
        return young_daly_error(
            self.empirical_overhead, self.analytical_overhead
        )

    @property
    def within_tolerance(self) -> bool:
        return self.relative_error <= self.tolerance

    def summary(self) -> str:
        verdict = "OK" if self.within_tolerance else "MISMATCH"
        return (
            f"analytical {self.analytical_overhead:.2%} vs empirical "
            f"{self.empirical_overhead:.2%} "
            f"(rel. err {self.relative_error:.1%}, tol {self.tolerance:.0%}) "
            f"[{verdict}]"
        )


def empirical_overhead(
    plan: CheckpointPlan,
    write_time: float,
    interval: float | None = None,
    seed: int = 0,
    work_seconds: float | None = None,
) -> RestartStats:
    """Measure the checkpoint+rework overhead by event-driven simulation."""
    tau = interval if interval is not None else plan.optimal_interval(write_time)
    if work_seconds is None:
        work_seconds = DEFAULT_WORK_MTBF_MULTIPLE * plan.system_mtbf
    return simulate_checkpoint_restart(
        work_seconds=work_seconds,
        interval=tau,
        write_time=write_time,
        n_nodes=plan.n_nodes,
        node_mtbf_seconds=plan.node_mtbf_seconds,
        seed=seed,
    )


def validate_young_daly(
    plan: CheckpointPlan,
    write_time: float,
    interval: float | None = None,
    seed: int = 0,
    work_seconds: float | None = None,
    tolerance: float = 0.2,
) -> ValidationResult:
    """Compare simulated overhead against ``plan.overhead_fraction``.

    The first-order model is only claimed in its own regime; reject
    parameter sets where the checkpoint write is not small against the
    interval, or the interval not small against the MTBF.
    """
    if tolerance <= 0:
        raise ConfigurationError("tolerance must be positive")
    tau = interval if interval is not None else plan.optimal_interval(write_time)
    mtbf = plan.system_mtbf
    if write_time > 0.5 * tau or tau > 0.5 * mtbf:
        raise ConfigurationError(
            "outside the Young/Daly regime: need write_time << interval "
            f"<< MTBF, got {write_time:.3g} / {tau:.3g} / {mtbf:.3g}"
        )
    stats = empirical_overhead(
        plan, write_time, interval=tau, seed=seed, work_seconds=work_seconds
    )
    return ValidationResult(
        analytical_overhead=plan.overhead_fraction(write_time, tau),
        empirical_overhead=stats.overhead_fraction,
        tolerance=tolerance,
        interval=tau,
        write_time=write_time,
        system_mtbf=mtbf,
        stats=stats,
    )
