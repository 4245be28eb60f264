"""Differential testing: the kept-order scheduler against the sorting oracle.

``Scheduler.run`` keeps its queue sorted by the ``now``-free
``policy.queue_key``, falls back to a per-event sort only near a float
tie, and runs one pruned backfill pass per event; where only one job
arrived and nothing else changed, that pass tests the arrival alone.
:class:`tests.oracles.SortingScheduler` stable-sorts the whole queue by
``priority_key`` at every event and rescans backfill until a pass starts
nothing. The two must be indistinguishable: the same ``repr`` of the
``ScheduleResult`` (dict insertion order included) and, with telemetry
attached, byte-identical JSONL and Chrome-trace exports.

The job streams are built to break a kept order:

- grid-aligned submit times (300/450/900/3600 s) make identical jobs and
  exact ties common; a job that entered first must stay ahead of an
  identical one;
- late epochs, submit offsets up to 1e12 s, make every key round
  coarsely;
- nudged capability ties: aging buys one node of priority per 900 s, so
  ``s_b = s_a + 900·(n_b - n_a)`` gives two jobs equal priority at every
  instant in exact arithmetic, and a few ulps either way leave them within
  the tie margin, where float rounding decides their order;
- a backlog behind a blocked head, one arrival at a time: the points
  where only the arrival is tested for backfill, and the points next to
  them where that shortcut must not be taken (see :func:`backlog`).
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from .hypothesis_settings import STANDARD_SETTINGS
from .oracles import SortingScheduler
from repro.scheduler import FaultModel, Job, Policy, Scheduler
from repro.scheduler.policy import (
    AGING_NODES_PER_HOUR,
    priority_key,
    queue_key,
    tie_margin,
)
from repro.telemetry import Telemetry, chrome_trace_json, to_jsonl

N_NODES = 16
GRID_STEPS = (300.0, 450.0, 900.0, 3600.0)
#: Seconds of waiting that buy one node of capability priority.
SECONDS_PER_NODE = 3600.0 / AGING_NODES_PER_HOUR
DURATIONS = st.sampled_from([300.0, 600.0, 900.0, 1800.0, 3600.0, 5400.0])
FAULTS = st.one_of(
    st.none(),
    st.builds(
        FaultModel,
        node_mtbf_seconds=st.sampled_from([2e4, 1e5, 5e5]),
        checkpoint_interval=st.sampled_from([None, 600.0, 1800.0]),
        max_requeues=st.integers(0, 3),
        seed=st.integers(0, 7),
    ),
)


def _nudge(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` representable doubles up (or down)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


@st.composite
def backlog(draw):
    """A full-width-ish head blocked behind one long job, then arrivals one
    at a time.

    ``long`` holds most of the machine until ``long_end`` and ``head``,
    which needs some of those nodes, queues right behind it; its
    reservation is ``long_end`` at first. Each later job arrives alone, at
    a distinct multiple of 300 s. Most are narrow enough for the idle
    nodes, with a run that ends a step before, at or a step after
    ``long_end``, so backfill starts some and refuses others. Now and then
    a wide one arrives that, under the capability policy, displaces the
    head. Every duration is a multiple of 300 s too, so arrivals often
    coincide with completions, where the full pass must run.
    """
    step = 300.0
    held = draw(st.integers(N_NODES // 2, N_NODES - 2))
    long_end = step * draw(st.integers(4, 40))
    head_nodes = draw(st.integers(N_NODES - held + 1, N_NODES))
    n = draw(st.integers(1, 22))
    slots = sorted(draw(st.sets(st.integers(2, 48), min_size=n, max_size=n)))
    jobs = [
        Job("long", held, long_end, 0.0),
        Job("head", head_nodes, draw(DURATIONS), step),
    ]
    for i, slot in enumerate(slots):
        submit = step * slot
        if draw(st.integers(0, 5)):
            nodes = draw(st.integers(1, N_NODES - held))
            straddle = step * draw(st.integers(-1, 1))
            duration = max(step, long_end - submit + straddle)
        else:
            nodes = draw(st.integers(head_nodes - 1, N_NODES))
            duration = draw(DURATIONS)
        jobs.append(Job(f"j{i}", nodes, duration, submit, uses_ai=bool(i % 2)))
    return jobs


@st.composite
def job_streams(draw, kind=None):
    """A list of jobs whose submit times follow one of the stream kinds."""
    kind = kind or draw(
        st.sampled_from(("grid", "late", "nudged", "any", "backlog"))
    )
    if kind == "backlog":
        return draw(backlog())
    n = draw(st.integers(1, 24))
    nodes = draw(st.lists(st.integers(1, N_NODES), min_size=n, max_size=n))
    durations = draw(st.lists(DURATIONS, min_size=n, max_size=n))
    step = draw(st.sampled_from(GRID_STEPS))
    slots = draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))
    if kind == "grid":
        submits = [step * k for k in slots]
    elif kind == "late":
        epoch = draw(st.floats(0.0, 1e12))
        submits = [epoch + step * k for k in slots]
    elif kind == "nudged":
        epoch = draw(st.sampled_from([0.0, 1234.5, 86400.0 * 365, 1e9, 1e12]))
        submits = []
        for i in range(n):
            partner = draw(st.integers(0, i))
            if partner == i:
                submits.append(epoch + step * slots[i])
                continue
            tied = submits[partner] + SECONDS_PER_NODE * (
                nodes[i] - nodes[partner]
            )
            if tied < 0.0:  # the wider job would predate the epoch
                tied, nodes[i] = submits[partner], nodes[partner]
            submits.append(max(0.0, _nudge(tied, draw(st.integers(-3, 3)))))
    else:
        submits = draw(st.lists(st.floats(0.0, 4 * 86400.0),
                                min_size=n, max_size=n))
    return [
        Job(f"j{i}", nodes[i], durations[i], submits[i], uses_ai=bool(i % 2))
        for i in range(n)
    ]


def _observe(cls, jobs, policy, faults, traced, n_nodes):
    """Every observable of one run, as plain comparable data."""
    telemetry = Telemetry() if traced else None
    result = cls(n_nodes, policy).run(list(jobs), faults, telemetry)
    if telemetry is None:
        return repr(result), None, None
    return repr(result), to_jsonl(telemetry), chrome_trace_json(telemetry)


def _assert_matches_oracle(jobs, policy, faults, traced, n_nodes=N_NODES):
    assert _observe(Scheduler, jobs, policy, faults, traced, n_nodes) == (
        _observe(SortingScheduler, jobs, policy, faults, traced, n_nodes)
    )


@settings(STANDARD_SETTINGS, max_examples=120)
@given(
    jobs=job_streams(),
    policy=st.sampled_from(list(Policy)),
    faults=FAULTS,
    traced=st.booleans(),
)
def test_schedule_matches_sorting_oracle(jobs, policy, faults, traced):
    """Any stream kind × policy × faults on/off × telemetry on/off."""
    _assert_matches_oracle(jobs, policy, faults, traced)


@settings(STANDARD_SETTINGS, max_examples=120)
@given(jobs=job_streams("nudged"), faults=FAULTS, traced=st.booleans())
def test_capability_near_ties_match_sorting_oracle(jobs, faults, traced):
    """Nudged ties are where a kept capability order can drift from the
    per-event sort; the tie guard must hand them to the sort."""
    _assert_matches_oracle(jobs, Policy.CAPABILITY, faults, traced)


@settings(STANDARD_SETTINGS, max_examples=120)
@given(
    jobs=job_streams("backlog"),
    policy=st.sampled_from(list(Policy)),
    faults=FAULTS,
    traced=st.booleans(),
)
def test_backlog_arrivals_match_sorting_oracle(jobs, policy, faults, traced):
    """Single arrivals behind a blocked head take the arrival-only
    backfill test; a coinciding completion or a displaced head must send
    the point back to the full pass."""
    _assert_matches_oracle(jobs, policy, faults, traced)


@pytest.mark.parametrize("traced", [False, True])
def test_rounded_tie_after_requeue_keeps_oracle_order(traced):
    """A requeued job can round to a tie with one that waited all along.

    After a wait of ~1e19 s the capability key's aging term is ~1e16,
    where doubles are 2 apart, so the wide ``a`` and the narrow ``b``
    (same submit time) can get equal priority keys. The per-event sort
    then keeps list order, and a requeued ``a`` sits behind ``b``: the
    queue must not slot ``a`` back into its ``queue_key`` place ahead of
    ``b`` when it falls back to sorting.
    """
    jobs = [Job("b", 1, 100.0, 0.0), Job("a", 2, 1e20, 0.0)]
    faults = FaultModel(node_mtbf_seconds=2e19, seed=0)
    _assert_matches_oracle(jobs, Policy.CAPABILITY, faults, traced, 2)
    result = Scheduler(2).run(list(jobs), faults)
    assert result.start_times["b"] < result.end_times["a"]


@settings(STANDARD_SETTINGS, max_examples=200)
@given(
    nodes=st.tuples(st.integers(1, 4608), st.integers(1, 4608)),
    submit=st.floats(0.0, 1e12),
    ulps=st.integers(-64, 64),
    waits=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_tie_margin_bounds_the_key_rounding(nodes, submit, ulps, waits):
    """Keys more than ``tie_margin`` apart keep their ``priority_key``
    order strictly at every ``now`` up to the horizon; nudged exact ties
    probe the margin's edge."""
    n_a, n_b = nodes
    s_a = submit
    s_b = _nudge(s_a + SECONDS_PER_NODE * (n_b - n_a), ulps)
    if s_b < 0.0:
        s_a, s_b = s_a - s_b, 0.0
    horizon = 4.0 * max(s_a, s_b) + 1e6
    margin = tie_margin(4608, horizon)
    a, b = Job("a", n_a, 1.0, s_a), Job("b", n_b, 1.0, s_b)
    key = queue_key(Policy.CAPABILITY)
    if key(a) > key(b):
        a, b = b, a
    if not key(b)[0] - key(a)[0] > margin:
        return
    latest = max(s_a, s_b)
    for fraction in waits:
        now = latest + fraction * (horizon - latest)
        assert priority_key(Policy.CAPABILITY, a, now) < priority_key(
            Policy.CAPABILITY, b, now
        )
