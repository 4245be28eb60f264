"""Per-task failure streams of the resilient DAG executor.

Task ``i`` of a graph executed at ``seed`` draws from PCG64 seeded by
``SeedSequence([seed, i])``. The executor computes every task's seed
state in one vectorised pass (``repro.workflows.dag._seed_states``); the
differential suite here holds it to numpy's own ``SeedSequence``, for
seeds of up to five 32-bit words, so entropy past numpy's 4-word pool is
covered.

``goldens/dag_resilient.json`` pins every :class:`WorkflowRun` field of a
reduced copy of the perfbench workflow-dag graph: 3 rounds of 40
checkpointing Summit simulations, each round gated by a CS-2 training
task and a ThetaGPU analysis task (126 tasks), executed under
``RetryPolicy(max_attempts=30)``. It holds four seeds, of one, two and
four 32-bit words, so a change to how a task's failure stream is seeded
shows up as a golden diff. Dicts keep their insertion order and floats
are written by ``repr``. To regenerate after an *intentional* change::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/test_dag_seeding.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.errors import ConfigurationError
from repro.resilience.retry import RetryPolicy
from repro.telemetry import Telemetry
from repro.workflows.dag import TaskGraph, _SeedRow, _seed_states
from repro.workflows.facility import FACILITIES, Facility

from .hypothesis_settings import STANDARD_SETTINGS

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "dag_resilient.json"
GOLDEN_SEEDS = (0, 5, 2**32 + 1, 2**96 + 7)
ROUNDS = 3
SIMS_PER_ROUND = 40
UINT32_MAX = 2**32 - 1


def _campaign_graph(seed: int) -> TaskGraph:
    """The perfbench workflow-dag shape at ``ROUNDS x SIMS_PER_ROUND``."""
    rng = np.random.default_rng(seed)
    graph = TaskGraph({k: FACILITIES[k] for k in ("summit", "cs2", "thetagpu")})
    gate: tuple[str, ...] = ()
    for r in range(ROUNDS):
        nodes = np.exp(rng.uniform(np.log(32), np.log(1024), SIMS_PER_ROUND))
        duration = rng.lognormal(np.log(3600.0), 0.5, SIMS_PER_ROUND)
        failures = rng.uniform(0.1, 0.9, SIMS_PER_ROUND)
        segments = rng.integers(4, 16, SIMS_PER_ROUND)
        sims = []
        for i in range(SIMS_PER_ROUND):
            name = f"r{r}.sim{i}"
            graph.add_task(
                name, float(duration[i]), "summit", nodes=int(nodes[i]),
                deps=gate, failure_rate=float(failures[i] / duration[i]),
                checkpoint_interval=float(duration[i] / segments[i]),
                checkpoint_write_time=30.0,
            )
            sims.append(name)
        graph.add_task(f"r{r}.train", 1800.0, "cs2", deps=sims)
        graph.add_task(f"r{r}.analyze", 900.0, "thetagpu", nodes=8,
                       deps=(f"r{r}.train",))
        gate = (f"r{r}.analyze",)
    return graph


def _golden_text() -> str:
    cases = []
    for seed in GOLDEN_SEEDS:
        run = _campaign_graph(seed).execute(
            retry=RetryPolicy(max_attempts=30), seed=seed
        )
        cases.append({
            "seed": seed,
            **{f.name: getattr(run, f.name) for f in dataclasses.fields(run)},
        })
    return json.dumps(cases, indent=1) + "\n"


def test_resilient_dag_matches_golden():
    text = _golden_text()
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        GOLDEN.write_text(text)
        pytest.skip(f"regenerated {GOLDEN.name}")
    assert text == GOLDEN.read_text(), (
        f"{GOLDEN.name} drifted: the resilient DAG no longer reproduces "
        "its committed failure draws, retries and timestamps"
    )


@STANDARD_SETTINGS
@given(
    seed=st.integers(0, 2**160 - 1),
    drawn=st.lists(st.integers(0, UINT32_MAX), max_size=6),
)
@example(seed=0, drawn=[])
@example(seed=2**32 - 1, drawn=[])
@example(seed=2**32, drawn=[])
@example(seed=2**96, drawn=[])
def test_seed_states_match_numpy(seed, drawn):
    indices = np.array([0, UINT32_MAX, *drawn], dtype=np.uint32)
    states = _seed_states(seed, indices)
    assert states.dtype == np.uint64
    assert states.tolist() == [
        np.random.SeedSequence([seed, i]).generate_state(4, np.uint64).tolist()
        for i in indices.tolist()
    ]
    for i, state in zip(indices.tolist(), states):
        ours = np.random.Generator(np.random.PCG64(_SeedRow(state)))
        oracle = np.random.default_rng([seed, i])
        assert ours.exponential() == oracle.exponential()
        assert ours.uniform() == oracle.uniform()


def _small_graph(rate: float) -> TaskGraph:
    graph = TaskGraph({"hpc": Facility("HPC", nodes=4)})
    graph.add_task("prep", 10.0, "hpc")
    graph.add_task("sim", 400.0, "hpc", deps=("prep",), failure_rate=rate)
    return graph


@pytest.mark.parametrize("rate", [0.0, 1 / 100.0], ids=["fault-free", "resilient"])
@pytest.mark.parametrize("seed", [-1, -(2**40), 0.5, "7", None])
def test_bad_seed_rejected_before_any_task_runs(rate, seed):
    telemetry = Telemetry()
    with pytest.raises(ConfigurationError, match="seed"):
        _small_graph(rate).execute(seed=seed, telemetry=telemetry)
    assert not telemetry.records


def test_later_tasks_leave_earlier_streams_alone():
    """Adding a task shifts contention, never an earlier task's draws."""
    retry = RetryPolicy(max_attempts=30)
    graph = _campaign_graph(5)
    before = graph.execute(retry=retry, seed=5)
    graph.add_task("late", 3600.0, "summit", failure_rate=1 / 7200.0)
    after = graph.execute(retry=retry, seed=5)
    assert {k: after.attempts[k] for k in before.attempts} == before.attempts
