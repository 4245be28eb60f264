#!/usr/bin/env python
"""A simulated year of whole-facility operation in seconds of wall-clock.

Two paths make a year of Summit-scale operation a coffee-sip-sized run:
the event engine's generator-free ``Timer`` processes, and the batch
scheduler, which keeps its running jobs in one ``heapq`` of completion
times and places each queued job once, in priority order, instead of
re-sorting the queue at every event:

1. **Per-node failure clocks** — a :class:`~repro.resilience.faults.
   FailureInjector` gives each of Summit's 4 608 nodes its own exponential
   MTBF clock (one ``Timer`` per node; clock index = node index) and
   stalks one year-long facility process; every firing interrupts the
   target with the failing node's identity.
2. **A year of batch scheduling** — ~80 k jobs from the utilization-
   targeted synthetic stream, replayed through the scheduler with
   checkpoint/requeue fault churn.

Run:  python examples/facility_year.py
"""

import time

from repro.resilience.faults import FailureInjector
from repro.scheduler import FaultModel, Scheduler
from repro.scheduler.jobs import synthetic_facility_year
from repro.sim.engine import Engine, Interrupt, Timeout

YEAR = 365.0 * 86400.0
N_NODES = 4608


def facility(eng: Engine):
    """A year-long facility process that absorbs node-failure interrupts."""
    failures = 0
    remaining = YEAR
    while True:
        started = eng.now
        try:
            yield Timeout(remaining)
            return failures
        except Interrupt:
            failures += 1
            remaining -= eng.now - started


def main() -> None:
    # -- 1. per-node failure clocks, one Timer per node ---------------------
    print(f"1. A year of per-node failure clocks ({N_NODES:,} nodes)")
    print("=" * 64)
    eng = Engine()
    target = eng.spawn(facility(eng), name="facility")
    injector = FailureInjector(eng, seed=0)
    injector.attach(target, N_NODES, per_node=True)
    t0 = time.perf_counter()
    eng.run()
    clocks_wall = time.perf_counter() - t0
    nodes_hit = len({e.node for e in injector.events})
    print(f"  {len(injector.events)} node failures over "
          f"{eng.now / 86400:.0f} simulated days "
          f"({nodes_hit} distinct nodes) in {clocks_wall:.3f} s wall-clock")
    print(f"  (one Timer process per node: {N_NODES:,} exponential clocks "
          "on the engine's event heap)\n")

    # -- 2. a year of batch scheduling ----------------------------------------
    print("2. A year of batch scheduling")
    print("=" * 64)
    t0 = time.perf_counter()
    jobs = synthetic_facility_year(seed=0, n_nodes=N_NODES, horizon=YEAR)
    gen_wall = time.perf_counter() - t0
    faults = FaultModel(checkpoint_interval=3600.0, seed=0)
    t0 = time.perf_counter()
    result = Scheduler(N_NODES).run(jobs, faults=faults)
    year_wall = time.perf_counter() - t0
    print(f"  {len(jobs):,} jobs generated in {gen_wall:.2f} s, "
          f"replayed in {year_wall:.2f} s "
          f"({result.makespan / year_wall:,.0f} simulated s per wall s)")
    print(f"  utilization {result.utilization:.1%}, "
          f"goodput {result.goodput_fraction:.2%}, "
          f"{result.n_failures} failures, "
          f"{result.lost_node_hours:,.0f} node-hours lost")


if __name__ == "__main__":
    main()
