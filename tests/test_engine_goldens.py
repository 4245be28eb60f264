"""Seed-matrix golden traces: 3 seeds, one file each, two engines.

Each golden is the byte-exact Chrome-trace export of one seeded reference
workload (timers, re-arming timers, sleeps, a child wait, resource
contention and an interrupt). The files are committed; the tests
regenerate each trace in-process, on the production heap engine and on
the ``scan`` oracle (:class:`tests.oracles.ScanEngine`), and require both
to match the one per-seed file exactly. That pins three properties at
once:

- *temporal determinism* — rerunning a seed reproduces its trace;
- *oracle equivalence* — the heap loop and the linear-scan queue export
  the same bytes;
- *schedule stability* — any change to event ordering, tie-breaking or
  telemetry emission shows up as a golden diff in review, not as silent
  drift.

To regenerate after an *intentional* contract change (the production
engine writes the file; the oracle must then still match it)::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/test_engine_goldens.py
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro.sim import Interrupt, Resource, Timeout, Timer
from repro.telemetry import Telemetry, chrome_trace_json
from .oracles import ENGINES

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
SEEDS = (0, 1, 2)
IMPLS = tuple(ENGINES)


def _golden_path(seed: int) -> pathlib.Path:
    # a historical name: the production engine has reproduced these bytes
    # through every queue rewrite since the calendar queue wrote them
    return GOLDEN_DIR / f"engine_trace_seed{seed}_calendar.json"


def build_reference_trace(seed: int, impl: str) -> str:
    """Run the seeded reference workload; return its Chrome-trace JSON.

    All randomness is drawn from the seed *before* the engine runs, so the
    workload is identical no matter which engine executes it —
    the trace bytes are the observable under test. Delays are quantized to
    0.5s so simultaneous-event batches occur in every seed.
    """
    rng = np.random.default_rng(seed)
    sleep_delays = (np.floor(rng.uniform(0.0, 16.0, size=8) * 2) / 2).tolist()
    timer_delays = (np.floor(rng.uniform(0.0, 8.0, size=4) * 2) / 2).tolist()
    rearms = [int(x) for x in rng.integers(0, 3, size=4)]
    victim_idx = int(rng.integers(0, 4))
    interrupt_at = float(np.floor(rng.uniform(1.0, 6.0) * 2) / 2)

    telemetry = Telemetry()
    eng = ENGINES[impl](telemetry)
    pool = Resource(eng, capacity=2, name="pool")

    tickers = []
    for j, (delay, n) in enumerate(zip(timer_delays, rearms)):
        remaining = [n]

        def fire(remaining=remaining):
            if remaining[0]:
                remaining[0] -= 1
                return 1.5
            return None

        tickers.append(eng.spawn(Timer(delay, fire), name=f"ticker{j}"))

    def sleeper(i, delay):
        try:
            yield pool.acquire(1)
            yield Timeout(delay)
            pool.release(1)
        except Interrupt:
            return "rolled-back"
        return i

    sleepers = [
        eng.spawn(sleeper(i, d), name=f"sleeper{i}")
        for i, d in enumerate(sleep_delays)
    ]

    def chain():
        value = yield sleepers[0]
        yield Timeout(0.5)
        return ("chained", value)

    eng.spawn(chain(), name="chain")

    def saboteur():
        yield Timeout(interrupt_at)
        sleepers[victim_idx].interrupt("node-failure")
        tickers[victim_idx % len(tickers)].interrupt("node-failure")

    eng.spawn(saboteur(), name="saboteur")
    eng.run()
    return chrome_trace_json(telemetry) + "\n"


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_regenerating_golden_is_a_noop(seed, impl):
    path = _golden_path(seed)
    regenerated = build_reference_trace(seed, impl)
    if os.environ.get("REPRO_REGEN_GOLDENS") and impl == "heap":
        path.write_text(regenerated)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"{path.name} missing - run with REPRO_REGEN_GOLDENS=1 to create it"
    )
    assert regenerated == path.read_text(), (
        f"{path.name} drifted: the {impl} engine no longer reproduces the "
        f"committed seed-{seed} trace byte-for-byte"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_heap_and_calendar_goldens_identical(seed):
    """The oracle and the production engine agree in-process, golden or
    not — a regeneration can never bless a production-only drift. (The
    name is historical, like the golden files'.)"""
    scan = build_reference_trace(seed, "scan")
    heap = build_reference_trace(seed, "heap")
    assert scan == heap, f"seed {seed}: scan and heap traces diverged"


def test_goldens_are_nontrivial():
    """Guard against an accidentally-empty workload pinning nothing."""
    import json

    for seed in SEEDS:
        trace = json.loads(_golden_path(seed).read_text())
        events = trace["traceEvents"]
        assert len(events) > 30, f"seed {seed}: suspiciously small golden"
        assert any(e.get("ph") == "X" for e in events)
