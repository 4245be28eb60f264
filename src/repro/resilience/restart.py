"""Event-driven checkpoint-restart simulation of one long job.

The empirical counterpart of the analytical Young/Daly model in
:mod:`repro.storage.checkpoint`: a job that must complete ``work_seconds``
of useful compute runs on the discrete-event engine, writing a checkpoint
after every ``interval`` seconds of progress; a :class:`FailureInjector`
kills it at exponential times drawn from the job-wide MTBF, and each failure
rolls the job back to its last *committed* checkpoint (a checkpoint whose
write was cut short by the failure is invalid — the whole segment is lost).

The measured ``overhead_fraction`` of the resulting :class:`RestartStats`
converges to ``CheckpointPlan.overhead_fraction`` as the run accumulates
failures, which is exactly what :mod:`repro.resilience.validate` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.engine import Engine, Interrupt, Timeout

from repro.resilience.faults import FailureInjector, NodeFailureModel


@dataclass(frozen=True)
class RestartStats:
    """Outcome of a checkpoint-restart run."""

    work_seconds: float  # useful compute the job had to do
    wall_seconds: float  # wall-clock it actually took
    n_failures: int
    n_checkpoints: int  # committed checkpoint writes
    checkpoint_seconds: float  # wall-clock spent writing committed checkpoints
    lost_seconds: float  # wall-clock spent on work/writes later rolled back
    restart_seconds: float  # wall-clock spent in post-failure restart delays

    def __post_init__(self) -> None:
        if self.wall_seconds < self.work_seconds:
            raise ConfigurationError("wall-clock cannot beat the useful work")

    @property
    def overhead_fraction(self) -> float:
        """Fraction of wall-clock not spent on useful, kept work."""
        if self.wall_seconds == 0:
            return 0.0
        return (self.wall_seconds - self.work_seconds) / self.wall_seconds

    @property
    def goodput_fraction(self) -> float:
        """Useful work per wall-clock second — 1 minus the overhead."""
        return 1.0 - self.overhead_fraction


def simulate_checkpoint_restart(
    work_seconds: float,
    interval: float,
    write_time: float,
    n_nodes: int,
    node_mtbf_seconds: float,
    seed: int = 0,
    restart_delay: float = 0.0,
    telemetry=None,
) -> RestartStats:
    """Run one job to completion under failure injection; return the stats.

    Deterministic in ``seed``: identical seeds give identical failure times
    and therefore identical wall-clock. The injector's exponential clocks
    ride the engine's generator-free timer fast path.

    An optional :class:`~repro.telemetry.Telemetry` handle records one span
    per compute segment, checkpoint write and restart delay (facility
    "job"), the injector's fault instants, and restart counters/histograms;
    the simulated timeline is identical with telemetry on or off.

    Every argument is checked before the run starts, each check written so
    that NaN fails it. An infinite ``interval`` means "never checkpoint".
    """
    if not 0.0 < work_seconds < math.inf:
        raise ConfigurationError("work_seconds must be positive and finite")
    if not interval > 0:
        raise ConfigurationError("checkpoint interval must be positive")
    if not (0.0 <= write_time < math.inf and 0.0 <= restart_delay < math.inf):
        raise ConfigurationError(
            "write/restart times must be non-negative and finite"
        )
    failure_model = NodeFailureModel(node_mtbf_seconds)

    engine = Engine(telemetry)
    stats = {
        "failures": 0,
        "checkpoints": 0,
        "checkpoint_seconds": 0.0,
        "lost_seconds": 0.0,
        "restart_seconds": 0.0,
    }

    def job():
        committed = 0.0  # useful seconds safely behind a checkpoint
        open_span = None  # telemetry span cut short by an interrupt
        while committed < work_seconds:
            target = min(committed + interval, work_seconds)
            segment_start = engine.now
            try:
                # compute the segment, then (unless the job is done) commit it
                if telemetry is not None:
                    open_span = telemetry.begin(
                        "segment", "compute", facility="job",
                        track="progress", committed=committed,
                    )
                yield Timeout(target - committed)
                if telemetry is not None:
                    telemetry.end(open_span)
                    open_span = None
                if target < work_seconds:
                    if telemetry is not None:
                        open_span = telemetry.begin(
                            "checkpoint", "checkpoint", facility="job",
                            track="progress", committed=target,
                        )
                    yield Timeout(write_time)
                    stats["checkpoints"] += 1
                    stats["checkpoint_seconds"] += write_time
                    if telemetry is not None:
                        telemetry.end(open_span)
                        open_span = None
                        telemetry.metrics.counter(
                            "restart.checkpoints"
                        ).inc()
                committed = target
            except Interrupt:
                stats["failures"] += 1
                stats["lost_seconds"] += engine.now - segment_start
                if telemetry is not None:
                    if open_span is not None:
                        telemetry.end(open_span, failed=True)
                        open_span = None
                    telemetry.metrics.counter("restart.failures").inc()
                    telemetry.metrics.counter(
                        "restart.lost_seconds"
                    ).inc(engine.now - segment_start)
                if restart_delay > 0:
                    restart_start = engine.now
                    try:
                        if telemetry is not None:
                            open_span = telemetry.begin(
                                "restart", "restart", facility="job",
                                track="progress",
                            )
                        yield Timeout(restart_delay)
                    except Interrupt:
                        stats["failures"] += 1
                        if telemetry is not None:
                            telemetry.metrics.counter(
                                "restart.failures"
                            ).inc()
                    if telemetry is not None:
                        telemetry.end(open_span)
                        open_span = None
                    stats["restart_seconds"] += engine.now - restart_start
        return committed

    proc = engine.spawn(job(), name="checkpointed-job")
    injector = FailureInjector(engine, failure_model, seed=seed)
    injector.attach(proc, n_nodes)
    engine.run()

    assert proc.finished_at is not None
    return RestartStats(
        work_seconds=work_seconds,
        wall_seconds=proc.finished_at,
        n_failures=stats["failures"],
        n_checkpoints=stats["checkpoints"],
        checkpoint_seconds=stats["checkpoint_seconds"],
        lost_seconds=stats["lost_seconds"],
        restart_seconds=stats["restart_seconds"],
    )


def _restart_replica(kwargs: dict, child_seed: int) -> RestartStats:
    return simulate_checkpoint_restart(seed=child_seed, **kwargs)


def restart_ensemble(
    work_seconds: float,
    interval: float,
    write_time: float,
    n_nodes: int,
    node_mtbf_seconds: float,
    n_replicas: int = 8,
    seed: int = 0,
    n_jobs: int = 1,
    restart_delay: float = 0.0,
) -> list[RestartStats]:
    """A Monte-Carlo ensemble of checkpoint-restart runs, one per child seed.

    Replica ``i`` runs :func:`simulate_checkpoint_restart` with the ``i``-th
    ``SeedSequence`` child of ``seed`` — independent failure streams whose
    assignment never depends on ``n_jobs``, so the returned list (replica
    order) is identical whether the ensemble ran serially or fanned out
    over a process pool. Averaging ``overhead_fraction`` across replicas is
    how the Young/Daly validation shrinks its stochastic error bar.
    """
    from functools import partial

    from repro.exec.replicas import monte_carlo

    kwargs = dict(
        work_seconds=work_seconds,
        interval=interval,
        write_time=write_time,
        n_nodes=n_nodes,
        node_mtbf_seconds=node_mtbf_seconds,
        restart_delay=restart_delay,
    )
    return monte_carlo(
        partial(_restart_replica, kwargs), n_replicas, seed=seed, n_jobs=n_jobs
    )
