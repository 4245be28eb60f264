"""A year of whole-facility operation in single-digit wall-clock seconds.

Replay one simulated year of Summit-scale operation — 4 608 nodes, a
utilization-targeted synthetic stream of ~80 k jobs, exponential node
failures with checkpoint/requeue churn — through the scheduler, and time
it: :func:`~repro.scheduler.jobs.synthetic_facility_year` through
``Scheduler.run`` with a :class:`~repro.scheduler.faults.FaultModel`. The
ratchet pins simulated seconds per wall-clock second, so the floor rises
as the code speeds up regardless of host pace, and full mode asserts the
paper-shaped headline (a year in <= 10 s of wall-clock). The
facility-year goldens in ``tests/goldens/`` pin the replay's results.

Set ``REPRO_SMOKE=1`` for the small CI tier; scalars land in
``BENCH_facility_year.json`` and ``check_engine_floor.py`` ratchets them
against ``facility_year_floor.json``.
"""

from __future__ import annotations

import os
import time

from _record import record
from conftest import report

from repro.scheduler.faults import FaultModel
from repro.scheduler.jobs import synthetic_facility_year
from repro.scheduler.simulator import Scheduler

SMOKE = bool(os.environ.get("REPRO_SMOKE"))

#: Machine size and horizon per tier. Full is Summit for one year; smoke
#: is a small machine for a month so CI stays fast.
N_NODES = 256 if SMOKE else 4608
HORIZON = (30.0 if SMOKE else 365.0) * 86400.0

#: Full-mode wall-clock ceiling for the year replay (the headline claim).
MAX_YEAR_WALL_SECONDS = 10.0


def test_facility_year():
    t0 = time.perf_counter()
    jobs = synthetic_facility_year(
        seed=0, n_nodes=N_NODES, horizon=HORIZON
    )
    gen_wall = time.perf_counter() - t0
    faults = FaultModel(checkpoint_interval=3600.0, seed=0)
    t0 = time.perf_counter()
    result = Scheduler(N_NODES).run(jobs, faults=faults)
    year_wall = time.perf_counter() - t0
    sim_per_wall = result.makespan / year_wall
    if not SMOKE:
        assert year_wall <= MAX_YEAR_WALL_SECONDS, (
            f"facility year took {year_wall:.2f}s wall-clock "
            f"(need <= {MAX_YEAR_WALL_SECONDS}s)"
        )

    report(
        f"Facility year ({'smoke' if SMOKE else 'full'}, "
        f"{N_NODES:,} nodes, {HORIZON / 86400.0:.0f} days)",
        [
            ("jobs replayed", f"{len(jobs):,}", f"{gen_wall:.2f}s gen"),
            ("year wall-clock", f"{year_wall:.2f}s",
             f"{sim_per_wall:,.0f} sim-s/s"),
            ("utilization", f"{result.utilization:.3f}",
             f"{result.n_failures} failures"),
            ("goodput", f"{result.goodput_fraction:.4f}",
             f"{result.lost_node_hours:,.0f} lost node-h"),
        ],
        header=("metric", "value", "detail"),
    )
    record(
        "facility_year",
        {
            "n_nodes": N_NODES,
            "horizon_days": HORIZON / 86400.0,
            "n_jobs": len(jobs),
            "year_wall_seconds": year_wall,
            "sim_seconds_per_wall_second": sim_per_wall,
            "utilization": result.utilization,
            "goodput_fraction": result.goodput_fraction,
            "n_failures": result.n_failures,
            "max_year_wall_seconds": None if SMOKE else MAX_YEAR_WALL_SECONDS,
        },
        wall_seconds=gen_wall + year_wall,
    )
