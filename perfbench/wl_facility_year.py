"""facility-year: one simulated year of a 4,608-node machine with failures.

Each pass generates the seeded ~83k-job stream (set-up) and replays it
through ``Scheduler(4608).run`` with a checkpointing ``FaultModel`` (timed).
A traced pass also replays the same jobs with ``faults=None``, so the gap
between the two is the fault and requeue path's share of the replay.
"""

from __future__ import annotations

import math
from harness import Context, Outcome, digest

IMPORTS = ["repro.scheduler.jobs", "repro.scheduler.simulator",
           "repro.scheduler.faults"]

N_NODES = 4608
HORIZON_S = 365.0 * 86400.0
CHECKPOINT_INTERVAL_S = 3600.0


def _check(ctx: Context, jobs, result, faults: bool) -> None:
    """Invariants that hold for any seed."""
    checks = ctx.checks
    bad: list[str] = []
    ids = set()
    for job in jobs:
        ids.add(job.job_id)
        start = result.start_times.get(job.job_id)
        end = result.end_times.get(job.job_id)
        if start is None or end is None:
            bad.append(f"{job.job_id}: never started or ended")
        elif start < job.submit_time or end < start:
            bad.append(f"{job.job_id}: start {start} / end {end} out of order")
    checks.count(len(jobs), bad)
    abandoned = set(result.abandoned)
    checks.expect(abandoned <= ids, "abandoned jobs not in the input")
    checks.expect(
        result.n_requeues <= result.n_failures,
        f"requeues {result.n_requeues} > failures {result.n_failures}",
    )
    checks.expect(
        result.n_requeues + len(abandoned) == result.n_failures,
        "every failure must requeue or abandon exactly once",
    )
    offered = sum(j.node_seconds for j in jobs) / 3600.0
    occupied = result.utilization * N_NODES * result.makespan / 3600.0
    if faults:
        accounted = result.delivered_node_hours + result.lost_node_hours
        checks.expect(
            math.isclose(occupied, accounted, rel_tol=1e-9),
            f"occupied {occupied} != delivered + lost {accounted}",
        )
        checks.expect(
            result.delivered_node_hours <= offered * (1 + 1e-12),
            "delivered more node-hours than the jobs asked for",
        )
    else:
        checks.expect(result.n_failures == 0, "fault-free run failed jobs")
        checks.expect(
            math.isclose(result.delivered_node_hours, offered, rel_tol=1e-9)
            and math.isclose(occupied, offered, rel_tol=1e-9),
            "fault-free run did not deliver exactly the offered node-hours",
        )


def run(ctx: Context) -> Outcome:
    from repro.scheduler.faults import FaultModel
    from repro.scheduler.jobs import synthetic_facility_year
    from repro.scheduler.simulator import Scheduler

    first: dict = {}

    def one_pass(i: int) -> None:
        with ctx.measure("setup", "scheduler.jobs.generate"):
            jobs = synthetic_facility_year(
                seed=ctx.seed, n_nodes=N_NODES, horizon=HORIZON_S
            )
        faults = FaultModel(
            checkpoint_interval=CHECKPOINT_INTERVAL_S, seed=ctx.seed
        )
        with ctx.measure("run", "scheduler.simulator.run"):
            result = Scheduler(N_NODES).run(jobs, faults=faults)
        _check(ctx, jobs, result, faults=True)
        if i == 0:
            first.update(jobs=len(jobs), result=result)
        else:
            ctx.checks.expect(
                result == first["result"], "same seed replayed differently"
            )
        if ctx.tracer.enabled:
            with ctx.tracer.span("scheduler.simulator.run_nofault"):
                clean = Scheduler(N_NODES).run(jobs, faults=None)
            _check(ctx, jobs, clean, faults=False)

    ctx.passes(one_pass)
    result = first["result"]
    n_jobs = first["jobs"]
    outcome = Outcome(
        items=n_jobs,
        metrics={
            "facility_year_s": (ctx.median("run"), "s"),
            "jobs": (n_jobs, "count"),
            "utilization": (result.utilization, "ratio"),
            "goodput_fraction": (result.goodput_fraction, "ratio"),
        },
        failed_share=(ctx.checks.failed, ctx.checks.attempted,
                      "jobs and run invariants checked"),
        digest=digest(repr(result)),
    )
    if ctx.trace:
        tr = ctx.tracer
        outcome.layers = {
            "scheduler.jobs.generate_s": tr.median("scheduler.jobs.generate"),
            "scheduler.simulator.run_s": tr.median("scheduler.simulator.run"),
            "scheduler.simulator.run_nofault_s":
                tr.median("scheduler.simulator.run_nofault"),
            "scheduler.jobs": n_jobs,
            "scheduler.failures": result.n_failures,
            "scheduler.requeues": result.n_requeues,
            "scheduler.sim_s_per_wall_s":
                result.makespan / ctx.median("run", traced=True),
        }
    return outcome
