"""Empirical-vs-analytical validation of the Young/Daly checkpoint model.

``CheckpointPlan.overhead_fraction`` is a first-order closed form; nothing
in the seed codebase ever checked it against an actual failure process.
:func:`validate_young_daly` runs the event-driven checkpoint-restart
simulation at the plan's parameters and returns the
:class:`~repro.resilience.report.ResilienceReport` that carries both
overheads — the report ``repro resilience`` prints. The acceptance gate,
:meth:`~repro.resilience.report.ResilienceReport.matches_analytical`, is
agreement within 20 % in the regime where the model's assumptions hold
(``write_time << interval << system MTBF``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.resilience.report import ResilienceReport
from repro.resilience.restart import simulate_checkpoint_restart

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.checkpoint import CheckpointPlan

#: Default useful-work length, in units of the job's system MTBF. Long
#: enough that the run accumulates O(100) failures and the stochastic
#: rework term converges to its expectation.
DEFAULT_WORK_MTBF_MULTIPLE = 150.0


def validate_young_daly(
    plan: CheckpointPlan,
    write_time: float,
    interval: float | None = None,
    seed: int = 0,
    work_seconds: float | None = None,
) -> ResilienceReport:
    """Simulate ``plan`` and report its overhead beside the Young/Daly one.

    The first-order model is only claimed in its own regime; reject
    parameter sets where the checkpoint write is not small against the
    interval, or the interval not small against the MTBF.
    """
    tau = interval if interval is not None else plan.optimal_interval(write_time)
    mtbf = plan.system_mtbf
    if write_time > 0.5 * tau or tau > 0.5 * mtbf:
        raise ConfigurationError(
            "outside the Young/Daly regime: need write_time << interval "
            f"<< MTBF, got {write_time:.3g} / {tau:.3g} / {mtbf:.3g}"
        )
    if work_seconds is None:
        work_seconds = DEFAULT_WORK_MTBF_MULTIPLE * mtbf
    stats = simulate_checkpoint_restart(
        work_seconds=work_seconds,
        interval=tau,
        write_time=write_time,
        n_nodes=plan.n_nodes,
        node_mtbf_seconds=plan.node_mtbf_seconds,
        seed=seed,
    )
    return ResilienceReport.from_restart(
        name="Young/Daly validation",
        n_nodes=plan.n_nodes,
        node_mtbf_seconds=plan.node_mtbf_seconds,
        stats=stats,
        analytical_overhead=plan.overhead_fraction(write_time, tau),
    )
