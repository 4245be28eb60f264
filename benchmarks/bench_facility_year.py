"""A year of whole-facility operation in single-digit wall-clock seconds.

Replay one simulated year of Summit-scale operation — 4 608 nodes, a
utilization-targeted synthetic stream of ~80 k jobs, exponential node
failures with checkpoint/requeue churn — through the scheduler, and time
it. Two legs:

- **year replay** — :func:`~repro.scheduler.jobs.synthetic_facility_year`
  through ``Scheduler.run`` with a
  :class:`~repro.scheduler.faults.FaultModel`; the ratchet pins simulated
  seconds per wall-clock second, so the floor rises as the code speeds up
  regardless of host pace, and full mode asserts the paper-shaped headline
  (a year in <= 10 s of wall-clock);
- **bank drain** — one million homogeneous timers as a single numpy
  :class:`~repro.sim.timerbank.TimerBank` versus the same population as
  per-lane ``Timer(3600.0, counting_fire)`` processes on the same
  calendar engine; the drain-phase speedup has a >= 5x floor, and both
  drains must agree on the final clock and fire count. Determinism is the
  contract; speed is the payoff. The facility-year goldens in
  ``tests/goldens/`` pin the replay's results.

GC is disabled inside the timed drains (both variants equally), matching
``bench_engine.py``. Set ``REPRO_SMOKE=1`` for the small CI tier; scalars
land in ``BENCH_facility_year.json`` and ``check_engine_floor.py``
ratchets them against ``facility_year_floor.json``.
"""

from __future__ import annotations

import gc
import os
import time

from _record import record
from conftest import report

from repro.scheduler.faults import FaultModel
from repro.scheduler.jobs import synthetic_facility_year
from repro.scheduler.simulator import Scheduler
from repro.sim.engine import Engine, Timer
from repro.sim.timerbank import TimerBank

SMOKE = bool(os.environ.get("REPRO_SMOKE"))

#: Machine size and horizon per tier. Full is Summit for one year; smoke
#: is a small machine for a month so CI stays fast.
N_NODES = 256 if SMOKE else 4608
HORIZON = (30.0 if SMOKE else 365.0) * 86400.0

#: Timer count for the homogeneous-drain leg.
DRAIN_N = 50_000 if SMOKE else 1_000_000

#: Full-mode wall-clock ceiling for the year replay (the headline claim).
MAX_YEAR_WALL_SECONDS = 10.0

#: Required bank-over-object drain speedup, full tier.
MIN_BANK_SPEEDUP = 5.0


def _timed_run(eng: Engine) -> float:
    """Wall-clock seconds of ``eng.run()`` with the collector off."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        eng.run()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _drain_bank() -> tuple[float, float, int]:
    """Drain ``DRAIN_N`` homogeneous lanes of one bank: (wall, now, fired)."""
    eng = Engine()
    bank = TimerBank(eng, [3600.0] * DRAIN_N, name="drain")
    return _timed_run(eng), eng.now, bank.n_fired


def _drain_objects() -> tuple[float, float, int]:
    """The same population as per-lane ``Timer`` processes."""
    eng = Engine()
    fired = 0

    def counting_fire() -> None:
        nonlocal fired
        fired += 1

    for lane in range(DRAIN_N):
        eng.spawn(Timer(3600.0, counting_fire), name=f"drain[{lane}]")
    return _timed_run(eng), eng.now, fired


def test_facility_year():
    # -- leg 1: the year (or month) replay, with faults ------------------
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

    # -- leg 2: million-timer homogeneous drain, bank vs object ----------
    obj_wall, obj_now, obj_fired = _drain_objects()
    bank_wall, bank_now, bank_fired = _drain_bank()
    assert (obj_now, obj_fired) == (bank_now, bank_fired) == (3600.0, DRAIN_N)
    speedup = obj_wall / bank_wall
    if not SMOKE:
        assert speedup >= MIN_BANK_SPEEDUP, (
            f"bank drain only {speedup:.2f}x over object timers on "
            f"{DRAIN_N:,} homogeneous lanes (need >= {MIN_BANK_SPEEDUP}x)"
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
            (f"drain n={DRAIN_N:,}", f"object {obj_wall:.3f}s",
             f"bank {bank_wall:.3f}s ({speedup:.1f}x)"),
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
            "drain_n_timers": DRAIN_N,
            "object_drain_seconds": obj_wall,
            "bank_drain_seconds": bank_wall,
            "bank_drain_speedup": speedup,
            "bank_events_per_sec": DRAIN_N / bank_wall,
            "max_year_wall_seconds": None if SMOKE else MAX_YEAR_WALL_SECONDS,
            "min_bank_speedup": None if SMOKE else MIN_BANK_SPEEDUP,
        },
        wall_seconds=gen_wall + year_wall + obj_wall + bank_wall,
    )
