"""Scheduler properties and the facility-year seed-matrix goldens.

The file name is historical: the timer banks it once tested are gone, and
the per-node failure clocks they ran are pinned in
``tests/test_resilience.py``.

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

import hypothesis.strategies as st
import pytest
from hypothesis import given

from .hypothesis_settings import SLOW_SETTINGS
from repro.scheduler import FaultModel, Job, Policy, Scheduler
from repro.scheduler.jobs import synthetic_facility_year
from repro.telemetry import Telemetry


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
        for span in telemetry.finished_spans("job")
        for edge in ((span["start"], 1), (span["end"], -1))
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
    """The scheduler reproduces the same goldens with a telemetry handle
    attached — the replay's results are independent of recording at
    facility-golden scale. (The id is historical, like the file name.)"""
    telemetry = Telemetry()
    assert _facility_scalars(seed, telemetry) == json.loads(
        _golden_path(seed).read_text()
    )
    assert telemetry.finished_spans("job")
