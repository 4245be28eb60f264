"""Differential testing for numpy timer banks, plus scheduler properties.

The :mod:`repro.sim.timerbank` contract is byte-identity: a seeded
workload runs observably the same as a :class:`~repro.sim.timerbank.
TimerBank` or as its per-lane :class:`~repro.sim.engine.Timer` reference
(:class:`tests.oracles.ObjectTimerBank`), on the production engine or the
heap oracle — same event logs, same final states, byte-identical Chrome
traces. Hypothesis generates mixed programs (bank populations with every
survival style, generator processes sleeping and cancelling banks
mid-flight) and every observable is compared across the full 2x2
(bank x engine) grid.

The scheduler's single path is held to conservation properties over
random job streams, and the facility-year demo is pinned by a seed-matrix
golden: a small scheduler replay per seed whose scalar results are
committed JSON, regenerated with ``REPRO_REGEN_GOLDENS=1`` after
intentional changes.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from .hypothesis_settings import SLOW_SETTINGS, STANDARD_SETTINGS
from .oracles import ENGINES, ObjectTimerBank
from repro.scheduler import FaultModel, Job, Policy, Scheduler
from repro.scheduler.jobs import synthetic_facility_year
from repro.scheduler.policy import priority_key
from repro.sim import Engine, ExponentialRearm, Timeout, TimerBank
from repro.telemetry import Telemetry, chrome_trace_json

# Quantized initial delays: duplicates make same-instant expiry batches
# common (the bank's mass-dispatch path); re-arm delays are continuous
# rng draws, so cross-block equal-deadline collisions stay measure-zero.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])

#: (initial delays, survival style, fires-per-lane budget) per bank.
BANKS = st.lists(
    st.tuples(
        st.lists(DELAYS, min_size=1, max_size=5),
        st.sampled_from(["sleep", "legacy", "rearm"]),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=3,
)

ACTIONS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 5)),
)

#: Generator processes running beside the banks.
PROGRAMS = st.lists(
    st.lists(ACTIONS, min_size=1, max_size=4), max_size=3
)


def run_mixed(programs, banks, impl, bank_cls, with_telemetry=False):
    """Run one generated mixed workload; return every observable."""
    telemetry = Telemetry() if with_telemetry else None
    eng = ENGINES[impl](telemetry)
    log: list[tuple] = []
    handles: list[TimerBank | ObjectTimerBank] = []

    for b, (delays, style, budget) in enumerate(banks):
        if style == "sleep":
            handles.append(bank_cls(eng, delays, name=f"b{b}"))
            continue
        counts: dict[int, int] = {}

        if style == "legacy":
            def on_fire(lane, b=b, counts=counts, budget=budget):
                c = counts.get(lane, 0) + 1
                counts[lane] = c
                log.append(("fire", b, lane, eng.now))
                if c > budget:
                    return None  # lane dies
                return 0.5 + 0.25 * lane  # next delay, Timer-style

            handles.append(
                bank_cls(eng, delays, on_fire=on_fire, name=f"b{b}")
            )
        else:  # rearm rule: exponential draws from a per-bank seeded rng
            def on_fire(lane, b=b, counts=counts, budget=budget):
                c = counts.get(lane, 0) + 1
                counts[lane] = c
                log.append(("fire", b, lane, eng.now))
                return c <= budget  # False retires the lane

            handles.append(bank_cls(
                eng, delays, on_fire=on_fire,
                rearm=ExponentialRearm(1.5, np.random.default_rng(100 + b)),
                name=f"b{b}",
            ))

    def body(i, actions):
        for act in actions:
            if act[0] == "sleep":
                yield Timeout(act[1])
                log.append(("slept", i, eng.now))
            else:
                target = act[1] % len(handles)
                n = handles[target].cancel(f"by-{i}")
                log.append(("cancelled", i, target, n, eng.now))
        return f"result-{i}"

    procs = [
        eng.spawn(body(i, actions), name=f"p{i}")
        for i, actions in enumerate(programs)
    ]
    eng.run()

    return {
        "log": log,
        "now": eng.now,
        "banks": [
            (h.n_fired, h.live_count, h.done) for h in handles
        ],
        "procs": [
            (p.name, p.finished, p.killed, p.result, p.finished_at)
            for p in procs
        ],
        "trace": chrome_trace_json(telemetry) if with_telemetry else None,
    }


GRID = [
    ("heap", ObjectTimerBank), ("heap", TimerBank),
    ("calendar", ObjectTimerBank), ("calendar", TimerBank),
]


@STANDARD_SETTINGS
@given(programs=PROGRAMS, banks=BANKS)
def test_bank_grid_equivalent(programs, banks):
    """Same logs, clocks and final states across bank x engine."""
    results = [
        run_mixed(programs, banks, impl, bank_cls)
        for impl, bank_cls in GRID
    ]
    for other in results[1:]:
        assert other == results[0]


@SLOW_SETTINGS
@given(programs=PROGRAMS, banks=BANKS)
def test_bank_traces_byte_identical(programs, banks):
    """Chrome traces are byte-identical across the whole grid."""
    results = [
        run_mixed(programs, banks, impl, bank_cls, with_telemetry=True)
        for impl, bank_cls in GRID
    ]
    for other in results[1:]:
        assert other["trace"] == results[0]["trace"]
        assert other == results[0]


@STANDARD_SETTINGS
@given(
    delays=st.lists(DELAYS, min_size=1, max_size=30),
    impl=st.sampled_from(list(ENGINES)),
)
def test_spawn_timers_bank_opt_in_equivalent(delays, impl):
    """A :class:`TimerBank` over the delays matches ``spawn_timers``."""
    plain_eng = ENGINES[impl]()
    plain = plain_eng.spawn_timers(delays)
    plain_eng.run()

    bank_eng = ENGINES[impl]()
    bank = TimerBank(bank_eng, delays)
    bank_eng.run()

    assert bank_eng.now == plain_eng.now
    assert bank.done
    assert bank.n_fired == len(delays)
    assert bank.live_count == 0
    assert all(p.finished and not p.killed for p in plain)


def test_spawn_timers_rejects_negative_delay_naming_index():
    eng = Engine()
    with pytest.raises(ValueError, match=r"-2\.0 at index 2"):
        eng.spawn_timers([1.0, 0.5, -2.0, 3.0])


def test_spawn_timers_rejects_nan_delay():
    eng = Engine()
    with pytest.raises(ValueError, match="index 1"):
        eng.spawn_timers([1.0, float("nan")])


def test_spawn_timers_rejects_non_1d():
    eng = Engine()
    with pytest.raises(ValueError, match="one-dimensional"):
        eng.spawn_timers([[1.0, 2.0]])


JOBS = st.lists(
    st.tuples(
        st.integers(1, 16),                       # nodes
        st.sampled_from([600.0, 1800.0, 3600.0]),  # duration
        st.sampled_from([0.0, 0.0, 300.0, 900.0, 3600.0]),  # submit
    ),
    min_size=1,
    max_size=20,
)


def _peak_busy_nodes(telemetry: Telemetry) -> int:
    """Most nodes the job spans ever hold at once (a sweep over spans).

    On a machine small enough for per-node tracks every execution opens
    one span per node it holds, so concurrent open spans count busy
    nodes. At equal times a release sorts before a start: nodes freed at
    ``t`` may be handed to a job starting at ``t``.
    """
    edges = sorted(
        edge
        for span in telemetry.spans if span.category == "job"
        for edge in ((span.start, 1), (span.end, -1))
    )
    busy = peak = 0
    for _, delta in edges:
        busy += delta
        peak = max(peak, busy)
    return peak


@SLOW_SETTINGS
@given(
    jobspec=JOBS,
    policy=st.sampled_from(list(Policy)),
    with_faults=st.booleans(),
)
def test_scheduler_invariants(jobspec, policy, with_faults):
    """Telemetry-blind, never overcommitted, node-hours and faults
    conserved — over the same job streams x policies x faults grid."""
    n_nodes = 16
    jobs = [
        Job(f"j{i}", nodes, duration, submit, uses_ai=bool(i % 2))
        for i, (nodes, duration, submit) in enumerate(jobspec)
    ]
    faults = (
        FaultModel(node_mtbf_seconds=2e5, checkpoint_interval=1800.0, seed=3)
        if with_faults else None
    )
    plain = Scheduler(n_nodes, policy).run(list(jobs), faults=faults)
    telemetry = Telemetry()
    traced = Scheduler(n_nodes, policy).run(
        list(jobs), faults=faults, telemetry=telemetry
    )
    assert traced == plain
    assert _peak_busy_nodes(telemetry) <= n_nodes
    occupied = plain.utilization * n_nodes * plain.makespan / 3600.0
    assert math.isclose(
        occupied, plain.delivered_node_hours + plain.lost_node_hours,
        rel_tol=1e-9,
    )
    assert plain.n_requeues + len(plain.abandoned) == plain.n_failures


def test_scheduler_queue_key_lockstep():
    """The scheduler's inlined sort keys must equal priority_key exactly.

    ``Scheduler.run`` specialises the queue sort key per policy to skip
    per-event enum dispatch; this pins the float-for-float lockstep the
    inline comments promise.
    """
    rng = np.random.default_rng(5)
    jobs = [
        Job(f"k{i}", int(rng.integers(1, 4000)),
            float(rng.uniform(300, 86400)), float(rng.uniform(0, 1e6)))
        for i in range(200)
    ]
    for now in (0.0, 1234.56789, 1e6, 3.15e7):
        for policy in Policy:
            expected = [priority_key(policy, j, now) for j in jobs]
            if policy is Policy.CAPABILITY:
                inlined = [
                    (
                        -(j.nodes
                          + 4.0 * max(0.0, (now - j.submit_time) / 3600.0)),
                        j.submit_time,
                    )
                    for j in jobs
                ]
            elif policy is Policy.FIFO:
                inlined = [(j.submit_time,) for j in jobs]
            else:
                inlined = expected
            assert inlined == expected


@STANDARD_SETTINGS
@given(seed=st.integers(0, 30), n_nodes=st.sampled_from([16, 64, 256]))
def test_injector_bank_modes_equivalent(seed, n_nodes):
    """Per-node injector banks: the numpy bank on the production engine
    equals the per-lane reference on the heap oracle.

    Swapping both the bank and the engine in one run pins both axes at
    once; the injector builds its bank through
    ``repro.sim.timerbank.TimerBank``, which the reference run patches.
    """
    from repro.resilience.faults import FailureInjector, NodeFailureModel

    def one_run(impl):
        tel = Telemetry()
        eng = ENGINES[impl](tel)

        def target_gen():
            from repro.sim import Interrupt

            hits = 0
            remaining = 40.0 * 86400.0
            while True:
                started = eng.now
                try:
                    yield Timeout(remaining)
                    return hits
                except Interrupt:
                    hits += 1
                    remaining -= eng.now - started

        target = eng.spawn(target_gen(), name="job")
        injector = FailureInjector(
            eng, NodeFailureModel(1.0e7), seed=seed
        )
        bank = injector.attach(target, n_nodes, timer_bank=True)
        eng.run()
        return {
            "events": [(e.time, e.node) for e in injector.events],
            "now": eng.now,
            "result": target.result,
            "fired": bank.n_fired,
            "trace": chrome_trace_json(tel),
        }

    with mock.patch("repro.sim.timerbank.TimerBank", ObjectTimerBank):
        heap_run = one_run("heap")
    calendar_run = one_run("calendar")
    assert heap_run == calendar_run
    # the test generator re-derives its remaining time by float
    # subtraction, so the final clock is only approximately the horizon
    assert heap_run["now"] == pytest.approx(40.0 * 86400.0)


# -- facility-year seed-matrix goldens ------------------------------------

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
SEEDS = (0, 1, 2)
#: Small config: a 64-node machine over 4 days keeps each replay ~10 ms.
GOLDEN_NODES, GOLDEN_HORIZON = 64, 4.0 * 86400.0


def _golden_path(seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"facility_year_seed{seed}.json"


def _facility_scalars(seed: int, telemetry: Telemetry | None = None) -> dict:
    jobs = synthetic_facility_year(
        seed=seed, n_nodes=GOLDEN_NODES, horizon=GOLDEN_HORIZON
    )
    faults = FaultModel(
        node_mtbf_seconds=5e6, checkpoint_interval=3600.0, seed=seed
    )
    r = Scheduler(GOLDEN_NODES).run(jobs, faults=faults, telemetry=telemetry)
    return {
        "seed": seed,
        "n_jobs": len(jobs),
        "makespan": r.makespan,
        "utilization": r.utilization,
        "mean_wait": r.mean_wait,
        "delivered_node_hours": r.delivered_node_hours,
        "ai_node_hours": r.ai_node_hours,
        "n_failures": r.n_failures,
        "n_requeues": r.n_requeues,
        "lost_node_hours": r.lost_node_hours,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_facility_year_golden(seed):
    """The facility-year demo workload is pinned per seed."""
    path = _golden_path(seed)
    scalars = _facility_scalars(seed)
    regenerated = json.dumps(scalars, indent=2, sort_keys=True) + "\n"
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        path.write_text(regenerated)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"{path.name} missing - run with REPRO_REGEN_GOLDENS=1 to create it"
    )
    assert regenerated == path.read_text(), (
        f"{path.name} drifted: the facility-year replay no longer "
        f"reproduces the committed seed-{seed} scalars"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_facility_year_bank_off_matches_golden(seed):
    """The scheduler's one run-set, which runs no timer bank, reproduces
    the same goldens with a telemetry handle attached — the replay's
    results are independent of recording at facility-golden scale."""
    telemetry = Telemetry()
    assert _facility_scalars(seed, telemetry) == json.loads(
        _golden_path(seed).read_text()
    )
    assert any(span.category == "job" for span in telemetry.spans)
