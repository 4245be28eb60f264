"""Differential testing: the heap engine against the linear-scan oracle.

The engine contract (see :mod:`repro.sim.engine`) is a ``(time, seq)``
total order, so the production heap engine and the linear-scan oracle
(:class:`tests.oracles.ScanEngine`) are *indistinguishable*: same seed and
workload give the same event order, the same final process states, and —
with telemetry attached — byte-identical Chrome-trace exports.

Hypothesis generates adversarial programs over the full effect surface:
timeouts drawn from a small quantized delay set (so zero-delay cascades
and same-timestamp collisions are common, exercising the seq tie-break
and stale-entry skips), child waits, resource acquire/release over a shared
pool, interrupts (caught and uncaught, of generators and of timers), and
generator-free :class:`Timer` processes with re-arming fire callbacks.
Each program runs once per engine; every observable is compared.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given

from .hypothesis_settings import SLOW_SETTINGS, STANDARD_SETTINGS
from .oracles import ENGINES
from repro.errors import SimulationError
from repro.sim import Interrupt, Resource, Timeout, Timer
from repro.telemetry import Telemetry, chrome_trace_json

# Quantized delays: duplicates make same-timestamp batches likely and 0.0
# exercises zero-delay scheduling at the current instant.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])

ACTIONS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, 11)),
    st.tuples(st.just("acquire"), st.integers(1, 2), DELAYS),
    st.tuples(st.just("wait"), st.integers(0, 11)),
)

#: (catches_interrupts, [actions...]) per generator process.
PROGRAMS = st.lists(
    st.tuples(st.booleans(), st.lists(ACTIONS, min_size=1, max_size=5)),
    min_size=1,
    max_size=6,
)

#: (delay, n_rearms) per generator-free Timer process.
TIMERS = st.lists(st.tuples(DELAYS, st.integers(0, 2)), max_size=4)


def run_program(program, timers, impl, with_telemetry=False):
    """Run one generated workload; return every observable as plain data."""
    telemetry = Telemetry() if with_telemetry else None
    eng = ENGINES[impl](telemetry)
    pool = Resource(eng, capacity=2, name="pool")
    log: list[tuple] = []
    procs = []

    for j, (delay, rearms) in enumerate(timers):
        remaining = [rearms]

        def fire(j=j, remaining=remaining):
            log.append(("fired", j, eng.now))
            if remaining[0]:
                remaining[0] -= 1
                return 1.0 + j
            return None

        procs.append(
            eng.spawn(Timer(delay, fire, result=("timer", j)), name=f"t{j}")
        )

    def body(i, catches, actions):
        try:
            for act in actions:
                if act[0] == "sleep":
                    yield Timeout(act[1])
                    log.append(("slept", i, eng.now))
                elif act[0] == "interrupt":
                    target = act[1] % len(procs)
                    procs[target].interrupt(f"by-{i}")
                    log.append(("interrupted", i, target, eng.now))
                elif act[0] == "acquire":
                    yield pool.acquire(act[1])
                    log.append(("acquired", i, eng.now))
                    yield Timeout(act[2])
                    pool.release(act[1])
                    log.append(("released", i, eng.now))
                else:  # wait
                    target = act[1] % len(procs)
                    if procs[target] is not procs[i + len(timers)]:
                        value = yield procs[target]
                        log.append(("waited", i, target, value, eng.now))
        except Interrupt as exc:
            log.append(("caught", i, str(exc.cause), eng.now))
            if not catches:
                raise
        return f"result-{i}"

    for i, (catches, actions) in enumerate(program):
        procs.append(eng.spawn(body(i, catches, actions), name=f"p{i}"))

    error = None
    try:
        eng.run()
    except SimulationError as exc:
        # e.g. a process interrupting itself mid-step double-schedules it;
        # both engines must fail identically, at the same event
        error = str(exc)

    states = [
        (p.name, p.finished, p.killed, p.result, p.finished_at)
        for p in procs
    ]
    trace = chrome_trace_json(telemetry) if with_telemetry else None
    return {
        "log": log,
        "states": states,
        "now": eng.now,
        "pool": (pool.in_use, len(pool._queue)),
        "error": error,
        "trace": trace,
    }


@STANDARD_SETTINGS
@given(program=PROGRAMS, timers=TIMERS)
def test_event_order_and_final_state_equivalent(program, timers):
    scan = run_program(program, timers, "scan")
    heap = run_program(program, timers, "heap")
    assert scan == heap


@SLOW_SETTINGS
@given(program=PROGRAMS, timers=TIMERS)
def test_telemetry_traces_byte_identical(program, timers):
    scan = run_program(program, timers, "scan", with_telemetry=True)
    heap = run_program(program, timers, "heap", with_telemetry=True)
    assert scan["trace"] == heap["trace"]
    assert scan == heap


@SLOW_SETTINGS
@given(program=PROGRAMS, timers=TIMERS)
def test_same_impl_rerun_is_deterministic(program, timers):
    """Sanity anchor for the differential tests: reruns are identical."""
    first = run_program(program, timers, "heap")
    second = run_program(program, timers, "heap")
    assert first == second
