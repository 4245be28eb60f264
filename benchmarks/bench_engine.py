"""Event-engine throughput: calendar-queue fast path vs the heap baseline.

Times the same pure-timer workload two ways at each size and delay
distribution:

- **heap baseline** — the seed idiom: one generator per timer yielding a
  single ``Timeout``, on the one-pop-per-event heap oracle
  (:class:`tests.oracles.HeapEngine`);
- **calendar fast path** — ``spawn_timers`` bulk spawn (generator-free
  :class:`~repro.sim.engine.Timer` plans) on the production calendar-queue
  engine with batched same-timestamp dispatch.

The *drain* phase (``Engine.run`` — the pure event loop) and the *spawn*
phase are timed separately: the drain is where the calendar queue's
batched dispatch pays off, and it is the number the ratchet floor pins.
Both variants must agree on every per-timer completion time and the final
clock — determinism is the contract; speed is the payoff.

The homogeneous distribution (every timer expires at the same instant —
the failure-injector / Monte-Carlo ensemble shape) is the headline: the
heap pays an O(log n) sift per event with full tie-break comparisons,
while the calendar drains the whole instant as one bucket sort plus one
slice. The mixed distribution (hash-scattered delays) is the stress case
for bucket placement and is recorded, not just eyeballed.

GC is disabled inside the timed regions (both variants equally): with a
million live ``Process`` objects, collector pauses otherwise dominate the
signal. Set ``REPRO_SMOKE=1`` for a small-size CI run that records
timings and checks parity without enforcing the full-size speedup floor.
All scalars land in ``BENCH_engine.json``; ``check_engine_floor.py``
ratchets them in CI.
"""

from __future__ import annotations

import gc
import os
import time

from _record import record
from conftest import report

from repro.sim.engine import Engine, Timeout, Timer
from tests.oracles import HeapEngine

SMOKE = bool(os.environ.get("REPRO_SMOKE"))

#: Timer counts per measurement. The full ladder ends at one million —
#: the scale where the heap's O(log n) per-event sift hurts most.
SIZES = (2_000,) if SMOKE else (10_000, 100_000, 1_000_000)

#: Required drain-phase speedup, homogeneous distribution, largest size.
MIN_HOMO_SPEEDUP = 5.0

#: Every homogeneous timer expires at this delay (one giant batch).
HOMOGENEOUS_DELAY = 3600.0


def _mixed_delays(n: int) -> list[float]:
    """Deterministic hash-scattered delays in [0, ~3690s) — no RNG state."""
    return [(i * 2654435761 % 1000003) / 271.0 for i in range(n)]


def _gen_timer(delay: float):
    """The seed-era timer idiom: a generator that sleeps once."""
    yield Timeout(delay)


def _measure(delays: list[float], variant: str):
    """Spawn + drain one workload; return (engine, procs, spawn_s, drain_s)."""
    gc.collect()
    gc.disable()
    try:
        if variant == "heap":
            eng = HeapEngine()
            t0 = time.perf_counter()
            procs = [eng.spawn(_gen_timer(d)) for d in delays]
            t1 = time.perf_counter()
            eng.run()
            t2 = time.perf_counter()
        else:
            eng = Engine()
            t0 = time.perf_counter()
            procs = eng.spawn_timers(delays)
            t1 = time.perf_counter()
            eng.run()
            t2 = time.perf_counter()
    finally:
        gc.enable()
    return eng, procs, t1 - t0, t2 - t1


def test_engine_event_throughput():
    grid: dict[str, dict] = {}
    rows = []
    for n in SIZES:
        for dist in ("homogeneous", "mixed"):
            delays = (
                [HOMOGENEOUS_DELAY] * n if dist == "homogeneous"
                else _mixed_delays(n)
            )
            heap_eng, heap_procs, heap_spawn, heap_drain = _measure(
                delays, "heap"
            )
            cal_eng, cal_procs, cal_spawn, cal_drain = _measure(
                delays, "calendar"
            )

            # determinism parity: same final clock, every timer finished
            # at its exact delay on both schedulers
            assert heap_eng.now == cal_eng.now
            assert all(p.finished for p in cal_procs)
            assert all(
                h.finished_at == c.finished_at
                for h, c in zip(heap_procs, cal_procs)
            ), f"completion times diverged ({dist}, n={n})"

            combo = {
                "n_timers": n,
                "heap_spawn_seconds": heap_spawn,
                "heap_drain_seconds": heap_drain,
                "heap_events_per_sec": n / heap_drain,
                "calendar_spawn_seconds": cal_spawn,
                "calendar_drain_seconds": cal_drain,
                "calendar_events_per_sec": n / cal_drain,
                "drain_speedup": heap_drain / cal_drain,
                "total_speedup": (
                    (heap_spawn + heap_drain) / (cal_spawn + cal_drain)
                ),
            }
            grid[f"{dist}_{n}"] = combo
            rows.append((
                f"{dist} n={n:,}",
                f"{combo['heap_events_per_sec']:,.0f}/s",
                f"{combo['calendar_events_per_sec']:,.0f}/s",
                f"{combo['drain_speedup']:.2f}x",
                f"{combo['total_speedup']:.2f}x",
            ))

    largest = SIZES[-1]
    homo = grid[f"homogeneous_{largest}"]
    mixed = grid[f"mixed_{largest}"]
    if not SMOKE:
        assert homo["drain_speedup"] >= MIN_HOMO_SPEEDUP, (
            f"calendar drain only {homo['drain_speedup']:.2f}x over the "
            f"heap baseline on {largest:,} homogeneous timers "
            f"(need >= {MIN_HOMO_SPEEDUP}x)"
        )

    report(
        f"Engine event throughput ({'smoke' if SMOKE else 'full'}, "
        f"drain phase, gc off)",
        rows,
        header=("workload", "heap", "calendar", "drain", "total"),
    )
    record(
        "engine",
        {
            "sizes": list(SIZES),
            "grid": grid,
            "homogeneous_drain_speedup": homo["drain_speedup"],
            "homogeneous_total_speedup": homo["total_speedup"],
            "homogeneous_events_per_sec": homo["calendar_events_per_sec"],
            "mixed_drain_speedup": mixed["drain_speedup"],
            "mixed_events_per_sec": mixed["calendar_events_per_sec"],
            "min_homo_speedup": None if SMOKE else MIN_HOMO_SPEEDUP,
        },
        wall_seconds=sum(
            c["heap_spawn_seconds"] + c["heap_drain_seconds"]
            + c["calendar_spawn_seconds"] + c["calendar_drain_seconds"]
            for c in grid.values()
        ),
    )


def test_rearming_timer_parity():
    """A re-arming Timer matches a looping generator, event for event.

    Not a timed section — a cheap structural check that the fast path's
    re-arm scheduling (``fire`` returning a float) lands on the same
    simulated instants as the equivalent generator loop.
    """
    n_ticks = 5
    period = 7.0

    def looping(eng, log):
        for _ in range(n_ticks):
            yield Timeout(period)
            log.append(eng.now)

    gen_log: list[float] = []
    eng_gen = HeapEngine()
    eng_gen.spawn(looping(eng_gen, gen_log))
    eng_gen.run()

    timer_log: list[float] = []
    eng_t = Engine()
    remaining = [n_ticks]

    def fire():
        timer_log.append(eng_t.now)
        remaining[0] -= 1
        return period if remaining[0] else None

    eng_t.spawn(Timer(period, fire))
    eng_t.run()

    assert timer_log == gen_log
    assert eng_t.now == eng_gen.now == n_ticks * period
