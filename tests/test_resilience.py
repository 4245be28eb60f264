"""Tests for the resilience subsystem: engine interrupts, failure injection,
retry policies, checkpoint-restart simulation against the Young/Daly model,
the fault-aware DAG executor and batch scheduler, and the goodput wiring."""

import hashlib
import json
import math
import os
import pathlib

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.resilience import (
    FailureInjector,
    NodeFailureModel,
    ResilienceReport,
    RetryPolicy,
    simulate_checkpoint_restart,
)
from repro.scheduler import FaultModel, Job, Scheduler
from repro.sim import Engine, Interrupt, Resource, Timeout
from repro.storage.checkpoint import CheckpointPlan
from repro.telemetry import Telemetry, chrome_trace_json
from repro.training.goodput import DEFAULT_WORK_MTBF_MULTIPLE
from repro.workflows.dag import Task, TaskGraph, _attempt_timeline
from repro.workflows.facility import Facility

YEAR = 365 * 24 * 3600.0


# -- engine interrupts --------------------------------------------------------------


class TestInterrupt:
    def test_interrupt_during_timeout_is_catchable(self):
        eng = Engine()
        seen = []

        def victim():
            try:
                yield Timeout(10.0)
            except Interrupt as intr:
                seen.append((eng.now, intr.cause))
                yield Timeout(1.0)
            return "recovered"

        def killer(proc):
            yield Timeout(3.0)
            proc.interrupt("node died")

        proc = eng.spawn(victim())
        eng.spawn(killer(proc))
        eng.run()
        assert seen == [(3.0, "node died")]
        assert proc.result == "recovered"
        assert proc.finished_at == 4.0

    def test_uncaught_interrupt_kills_process_and_wakes_waiters(self):
        eng = Engine()

        def victim():
            yield Timeout(10.0)

        def parent(child):
            value = yield child
            return ("saw", value)

        def killer(proc):
            yield Timeout(2.0)
            proc.interrupt()

        child = eng.spawn(victim())
        par = eng.spawn(parent(child))
        eng.spawn(killer(child))
        eng.run()
        assert child.killed and child.finished
        assert par.result == ("saw", None)

    def test_interrupt_finished_process_is_noop(self):
        eng = Engine()

        def quick():
            yield Timeout(1.0)

        proc = eng.spawn(quick())
        eng.run()
        assert proc.interrupt() is False

    def test_interrupt_while_queued_on_resource_unblocks_others(self):
        eng = Engine()
        pool = Resource(eng, capacity=2)
        got = {}

        def holder():
            yield pool.acquire(2)
            yield Timeout(5.0)
            pool.release(2)

        def wide():
            try:
                yield pool.acquire(2)
                pool.release(2)
            except Interrupt:
                got["wide"] = eng.now

        def narrow():
            yield pool.acquire(1)
            got["narrow"] = eng.now
            pool.release(1)

        def killer(proc):
            yield Timeout(1.0)
            proc.interrupt()

        eng.spawn(holder())
        wide_proc = eng.spawn(wide())
        eng.spawn(narrow())
        eng.spawn(killer(wide_proc))
        eng.run()
        assert got["wide"] == 1.0
        assert got["narrow"] == 5.0  # wide's queue slot no longer gates it

    def test_stale_timeout_after_interrupt_never_fires(self):
        eng = Engine()
        fired = []

        def victim():
            try:
                yield Timeout(10.0)
                fired.append("timeout")
            except Interrupt:
                fired.append("interrupt")

        def killer(proc):
            yield Timeout(1.0)
            proc.interrupt()

        proc = eng.spawn(victim())
        eng.spawn(killer(proc))
        eng.run()
        assert fired == ["interrupt"]
        assert proc.finished_at == 1.0
        assert eng.now == 1.0  # the 10 s event was cancelled, not drained


# -- failure models and injection ---------------------------------------------------


class TestNodeFailureModel:
    def test_system_mtbf_shrinks_linearly(self):
        model = NodeFailureModel(node_mtbf_seconds=5 * YEAR)
        assert model.system_mtbf(1) == 5 * YEAR
        assert model.system_mtbf(4600) == pytest.approx(5 * YEAR / 4600)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeFailureModel(node_mtbf_seconds=0.0)
        with pytest.raises(ConfigurationError):
            NodeFailureModel(1.0).system_mtbf(0)

    @pytest.mark.parametrize("mtbf", [math.nan, math.inf, -math.inf])
    def test_non_finite_mtbf_rejected(self, mtbf):
        with pytest.raises(ConfigurationError, match="finite"):
            NodeFailureModel(node_mtbf_seconds=mtbf)


class TestFailureInjector:
    def test_injects_and_interrupts_victim(self):
        eng = Engine()
        hits = []

        def victim():
            done = 0.0
            while done < 100.0:
                start = eng.now
                try:
                    yield Timeout(100.0 - done)
                    done = 100.0
                except Interrupt as intr:
                    hits.append(intr.cause.time)
                    done += eng.now - start  # keep partial progress
            return done

        proc = eng.spawn(victim())
        injector = FailureInjector(
            eng, NodeFailureModel(node_mtbf_seconds=20.0), seed=0
        )
        injector.attach(proc, n_nodes=1)
        eng.run()
        assert proc.result == 100.0
        assert hits == [e.time for e in injector.events]
        assert len(hits) >= 1

    def test_same_seed_same_failure_times(self):
        def run(seed):
            eng = Engine()

            def victim():
                yield Timeout(500.0)

            proc = eng.spawn(victim())
            injector = FailureInjector(
                eng, NodeFailureModel(node_mtbf_seconds=50.0), seed=seed
            )
            injector.attach(proc, n_nodes=1)
            eng.run()
            return [e.time for e in injector.events]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_injector_stops_when_target_finishes(self):
        eng = Engine()

        def victim():
            try:
                yield Timeout(1.0)
            except Interrupt:
                pass

        proc = eng.spawn(victim())
        FailureInjector(
            eng, NodeFailureModel(node_mtbf_seconds=1e12), seed=0
        ).attach(proc, n_nodes=1)
        eng.run()
        # the sentinel kills the injector at t=1; the clock never advances
        # to the injector's (astronomically far) next draw
        assert eng.now == 1.0

    def test_per_node_matches_golden(self):
        """Per-node clocks are pinned by a committed golden: seeds 0-3 x
        16/64/256 nodes stalking a 40-day target with telemetry on, plus
        ``examples/facility_year.py``'s 4,608-node year at seed 0."""
        cases = [
            _per_node_case(seed, n_nodes)
            for seed in PER_NODE_SEEDS
            for n_nodes in PER_NODE_SIZES
        ]
        regenerated = json.dumps(
            {"cases": cases, "facility_year": _facility_year_case()},
            indent=2, sort_keys=True,
        ) + "\n"
        if os.environ.get("REPRO_REGEN_GOLDENS"):
            PER_NODE_GOLDEN.write_text(regenerated)
            pytest.skip(f"regenerated {PER_NODE_GOLDEN.name}")
        assert regenerated == PER_NODE_GOLDEN.read_text(), (
            f"{PER_NODE_GOLDEN.name} drifted: the per-node injector no "
            "longer reproduces its committed failure timelines"
        )


PER_NODE_GOLDEN = (
    pathlib.Path(__file__).parent / "goldens" / "injector_per_node.json"
)
PER_NODE_SEEDS = (0, 1, 2, 3)
PER_NODE_SIZES = (16, 64, 256)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stalk(eng, horizon, model, seed, n_nodes, name):
    """Run a ``horizon``-long target under per-node failure clocks."""

    def target_gen():
        hits = 0
        remaining = horizon
        while True:
            started = eng.now
            try:
                yield Timeout(remaining)
                return hits
            except Interrupt:
                hits += 1
                remaining -= eng.now - started

    target = eng.spawn(target_gen(), name=name)
    injector = FailureInjector(eng, model, seed=seed)
    injector.attach(target, n_nodes, per_node=True)
    eng.run()
    events = [[e.time, e.node] for e in injector.events]
    return {
        "n_events": len(events),
        "distinct_nodes": len({node for _, node in events}),
        "events_sha256": _sha256(json.dumps(events)),
        "now": eng.now,
        "result": target.result,
    }


def _per_node_case(seed: int, n_nodes: int) -> dict:
    telemetry = Telemetry()
    case = _stalk(
        Engine(telemetry), 40.0 * 86400.0, NodeFailureModel(1.0e7),
        seed, n_nodes, "job",
    )
    case.update(
        seed=seed, n_nodes=n_nodes,
        trace_sha256=_sha256(chrome_trace_json(telemetry)),
    )
    return case


def _facility_year_case() -> dict:
    return _stalk(Engine(), YEAR, NodeFailureModel(), 0, 4608, "facility")


# -- retry policy ------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(
            backoff_base=10.0, backoff_factor=2.0, backoff_max=35.0,
            jitter_fraction=0.0,
        )
        assert policy.delay(1) == 10.0
        assert policy.delay(2) == 20.0
        assert policy.delay(3) == 35.0  # capped
        assert policy.delay(10) == 35.0

    def test_jitter_bounded_and_deterministic(self):
        import numpy as np

        policy = RetryPolicy(backoff_base=100.0, jitter_fraction=0.25)
        delays = [
            policy.delay(1, np.random.default_rng(s)) for s in range(50)
        ]
        assert all(75.0 <= d <= 125.0 for d in delays)
        assert policy.delay(1, np.random.default_rng(0)) == delays[0]

    def test_exhausted(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay(0)

    @pytest.mark.parametrize("field, value", [
        ("backoff_base", math.nan),
        ("backoff_factor", math.nan),
        ("backoff_factor", math.inf),
        ("backoff_max", math.nan),
        ("deadline_s", math.nan),
    ])
    def test_nan_and_non_finite_factor_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            RetryPolicy(**{field: value})

    def test_growth_past_float_range_caps_instead_of_raising(self):
        # 2.0 ** 1024 overflows a float: attempt 1,025 at factor 2
        assert RetryPolicy(max_attempts=2000).delay(1025) == 3600.0
        assert RetryPolicy(
            backoff_base=0.0, max_attempts=2000
        ).delay(1500) == 0.0
        delays = list(RetryPolicy(max_attempts=1100).delays())
        assert len(delays) == 1099
        assert delays[-1] == 3600.0

    def test_infinite_cap_and_deadline_stay_legal(self):
        policy = RetryPolicy(
            backoff_max=math.inf, deadline_s=math.inf, jitter_fraction=0.0
        )
        assert policy.delay(4) == 240.0
        assert not policy.exhausted(1, elapsed_s=1e300)


# -- checkpoint-restart simulation -------------------------------------------------


class TestRestartSimulation:
    def test_failure_free_run_pays_only_checkpoint_writes(self):
        stats = simulate_checkpoint_restart(
            work_seconds=1000.0, interval=100.0, write_time=2.0,
            n_nodes=1, node_mtbf_seconds=1e15, seed=0,
        )
        # 9 interior checkpoints (none after the final segment)
        assert stats.n_checkpoints == 9
        assert stats.wall_seconds == 1000.0 + 9 * 2.0
        assert stats.n_failures == 0
        assert stats.lost_seconds == 0.0
        assert stats.goodput_fraction == pytest.approx(1000.0 / 1018.0)

    def test_failures_cost_wall_clock_but_work_completes(self):
        stats = simulate_checkpoint_restart(
            work_seconds=2000.0, interval=100.0, write_time=1.0,
            n_nodes=4, node_mtbf_seconds=2000.0, seed=1,
        )
        assert stats.n_failures > 0
        assert stats.lost_seconds > 0
        assert stats.wall_seconds > stats.work_seconds
        assert 0.0 < stats.overhead_fraction < 1.0

    def test_deterministic_in_seed(self):
        kwargs = dict(
            work_seconds=3000.0, interval=150.0, write_time=2.0,
            n_nodes=8, node_mtbf_seconds=4000.0,
        )
        a = simulate_checkpoint_restart(seed=11, **kwargs)
        b = simulate_checkpoint_restart(seed=11, **kwargs)
        c = simulate_checkpoint_restart(seed=12, **kwargs)
        assert a == b
        assert a != c

    def test_validation_of_arguments(self):
        with pytest.raises(ConfigurationError):
            simulate_checkpoint_restart(0.0, 1.0, 0.1, 1, 100.0)
        with pytest.raises(ConfigurationError):
            simulate_checkpoint_restart(10.0, 0.0, 0.1, 1, 100.0)
        with pytest.raises(ConfigurationError):
            simulate_checkpoint_restart(10.0, 1.0, -0.1, 1, 100.0)

    @pytest.mark.parametrize("name, value", [
        ("work_seconds", math.nan), ("work_seconds", math.inf),
        ("interval", math.nan),
        ("write_time", math.nan), ("write_time", math.inf),
        ("restart_delay", math.nan), ("restart_delay", math.inf),
        ("node_mtbf_seconds", math.nan), ("node_mtbf_seconds", math.inf),
    ])
    def test_non_finite_arguments_rejected_before_the_run(self, name, value):
        kwargs = dict(work_seconds=10.0, interval=1.0, write_time=0.1,
                      n_nodes=4, node_mtbf_seconds=1e6)
        kwargs[name] = value
        telemetry = Telemetry()
        with pytest.raises(ConfigurationError):
            simulate_checkpoint_restart(**kwargs, telemetry=telemetry)
        assert not telemetry.records

    def test_infinite_interval_never_checkpoints(self):
        stats = simulate_checkpoint_restart(
            work_seconds=500.0, interval=math.inf, write_time=5.0,
            n_nodes=1, node_mtbf_seconds=1e15, seed=0,
        )
        assert stats.n_checkpoints == 0
        assert stats.wall_seconds == 500.0


class TestYoungDalyValidation:
    """The event-driven checkpoint-restart run reproduces the Young/Daly
    overhead of ``CheckpointPlan`` within 20 % wherever the first-order
    model's assumptions hold (``write_time << interval << system MTBF``)."""

    @staticmethod
    def _report(plan, write_time, interval=None, seed=0):
        tau = plan.optimal_interval(write_time) if interval is None else interval
        mtbf = plan.system_mtbf
        assert write_time <= 0.5 * tau and tau <= 0.5 * mtbf, "outside the regime"
        stats = simulate_checkpoint_restart(
            work_seconds=DEFAULT_WORK_MTBF_MULTIPLE * mtbf,
            interval=tau,
            write_time=write_time,
            n_nodes=plan.n_nodes,
            node_mtbf_seconds=plan.node_mtbf_seconds,
            seed=seed,
        )
        return ResilienceReport.from_restart(
            name="Young/Daly validation",
            n_nodes=plan.n_nodes,
            node_mtbf_seconds=plan.node_mtbf_seconds,
            stats=stats,
            analytical_overhead=plan.overhead_fraction(write_time, tau),
        )

    def test_summit_scale_point_within_tolerance(self):
        plan = CheckpointPlan(
            state_bytes_per_node=100e9, n_nodes=4600,
            node_mtbf_seconds=5 * YEAR,
        )
        result = self._report(plan, write_time=48.0)
        assert result.matches_analytical(), result.format()

    def test_grid_of_mtbf_and_write_time_points(self):
        """Empirical simulation reproduces Young's optimum within 20 %
        across a grid of (MTBF, write-time) points."""
        for node_mtbf_years in (2.0, 5.0):
            for write_time in (15.0, 60.0, 240.0):
                plan = CheckpointPlan(
                    state_bytes_per_node=1e9,  # write_time is given directly
                    n_nodes=4096,
                    node_mtbf_seconds=node_mtbf_years * YEAR,
                )
                result = self._report(plan, write_time=write_time)
                assert result.matches_analytical(), (
                    f"MTBF {node_mtbf_years} y, write {write_time} s: "
                    + result.format()
                )

    def test_off_optimal_interval_also_validated(self):
        plan = CheckpointPlan(
            state_bytes_per_node=1e9, n_nodes=1024,
            node_mtbf_seconds=5 * YEAR,
        )
        tau = 2.0 * plan.optimal_interval(60.0)
        result = self._report(plan, write_time=60.0, interval=tau)
        assert result.matches_analytical(), result.format()
        # and the off-optimal overhead exceeds the optimal one analytically
        assert plan.overhead_fraction(60.0, tau) > plan.overhead_fraction(60.0)


# -- DAG executor under failures ---------------------------------------------------


def _facilities():
    return {"hpc": Facility(name="HPC", nodes=16, speed=1.0)}


def _graph(rate=0.0, ckpt=None, write=0.0):
    graph = TaskGraph(_facilities())
    graph.add_task("prep", 50.0, "hpc", nodes=2)
    graph.add_task(
        "train", 400.0, "hpc", nodes=8, deps=("prep",),
        failure_rate=rate, checkpoint_interval=ckpt,
        checkpoint_write_time=write,
    )
    graph.add_task("analyze", 30.0, "hpc", nodes=4, deps=("train",))
    return graph


class TestAttemptTimeline:
    def test_no_checkpoint_success(self):
        assert _attempt_timeline(100.0, None, 0.0, 1e30) == (100.0, 100.0, 0, True)

    def test_no_checkpoint_failure_loses_everything(self):
        wall, gained, writes, completed = _attempt_timeline(100.0, None, 0.0, 40.0)
        assert (wall, gained, writes, completed) == (40.0, 0.0, 0, False)

    def test_checkpointed_failure_keeps_committed_work(self):
        # two 30 s segments commit (with 2 s writes) before the failure at 70
        wall, gained, writes, completed = _attempt_timeline(100.0, 30.0, 2.0, 70.0)
        assert not completed
        assert gained == 60.0
        assert writes == 2
        assert wall == 70.0

    def test_failure_during_write_loses_segment(self):
        # first segment done at 30, write spans [30, 32): failure at 31
        wall, gained, writes, completed = _attempt_timeline(100.0, 30.0, 2.0, 31.0)
        assert not completed
        assert gained == 0.0
        assert writes == 0

    def test_success_pays_interior_writes_only(self):
        wall, gained, writes, completed = _attempt_timeline(90.0, 30.0, 2.0, 1e30)
        assert completed
        assert gained == 90.0
        assert writes == 2  # no write after the final segment
        assert wall == 90.0 + 4.0


class TestDagFailures:
    def test_fault_free_run_matches_seed_executor_exactly(self):
        run = _graph().execute()
        assert run.makespan == 480.0
        assert run.start_times == {"prep": 0.0, "train": 50.0, "analyze": 450.0}
        assert run.n_failures == 0
        assert run.lost_seconds == 0.0
        assert run.n_retries == 0
        assert run.attempts == {"prep": 1, "train": 1, "analyze": 1}

    def test_failures_retries_and_recovery(self):
        telemetry = Telemetry()
        run = _graph(rate=1 / 200.0, ckpt=50.0, write=1.0).execute(
            retry=RetryPolicy(max_attempts=30), seed=5, telemetry=telemetry
        )
        assert set(run.end_times) == {"prep", "train", "analyze"}
        assert run.makespan > 480.0
        assert run.n_failures >= 1
        assert run.n_retries == run.n_failures
        assert run.attempts["train"] == run.n_failures + 1
        trace = [
            r["cat"] for r in telemetry.records
            if r["type"] == "instant" and r["facility"] == "trace"
        ]
        assert trace.count("failure") == run.n_failures
        assert trace.count("retry") == run.n_failures

    def test_checkpointing_beats_cold_restart(self):
        policy = RetryPolicy(max_attempts=100, jitter_fraction=0.0)
        cold = _graph(rate=1 / 150.0).execute(retry=policy, seed=2)
        warm = _graph(rate=1 / 150.0, ckpt=40.0).execute(retry=policy, seed=2)
        # identical failure draws; checkpointed task loses less work
        assert warm.makespan <= cold.makespan
        assert warm.lost_seconds <= cold.lost_seconds

    def test_task_that_cannot_fail_still_pays_its_checkpoints(self):
        # a zero rate runs the one attempt loop, checkpoint writes included:
        # it must match a rate too small to ever draw a failure
        zero = _graph(rate=0.0, ckpt=40.0, write=2.0).execute(seed=1)
        tiny = _graph(rate=1e-300, ckpt=40.0, write=2.0).execute(seed=1)
        assert zero == tiny
        assert zero.n_checkpoints == 9  # 400 s of work, a write per 40 s
        assert zero.makespan == 480.0 + 9 * 2.0

    def test_retry_budget_exhaustion_raises(self):
        graph = _graph(rate=1.0)  # one failure per second: doomed
        with pytest.raises(SimulationError, match="retry budget"):
            graph.execute(retry=RetryPolicy(max_attempts=2), seed=0)

    def test_task_validation(self):
        with pytest.raises(ConfigurationError):
            _graph(rate=-1.0)
        with pytest.raises(ConfigurationError):
            _graph(rate=0.1, ckpt=0.0)
        with pytest.raises(ConfigurationError):
            _graph(rate=0.1, ckpt=10.0, write=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("duration", math.nan),
        ("duration", math.inf),
        ("failure_rate", math.nan),
        ("failure_rate", math.inf),
        ("checkpoint_interval", math.nan),
        ("checkpoint_write_time", math.nan),
        ("checkpoint_write_time", math.inf),
    ])
    def test_non_finite_task_inputs_rejected(self, field, value):
        task = dict(
            name="t", duration=400.0, facility="hpc", failure_rate=1 / 200.0,
            checkpoint_interval=50.0, checkpoint_write_time=1.0,
        )
        task[field] = value
        with pytest.raises(ConfigurationError, match=field.replace("_", " ")):
            Task(**task)

    def test_infinite_checkpoint_interval_never_commits(self):
        policy = RetryPolicy(max_attempts=100)
        cold = _graph(rate=1 / 150.0).execute(retry=policy, seed=3)
        never = _graph(rate=1 / 150.0, ckpt=math.inf, write=1.0).execute(
            retry=policy, seed=3
        )
        assert cold.n_failures > 0
        assert never == cold


# -- scheduler under failures ------------------------------------------------------


def _jobs():
    return [
        Job("wide", nodes=3000, duration=30000.0, submit_time=0.0, uses_ai=True),
        Job("mid", nodes=1024, duration=20000.0, submit_time=50.0),
        Job("small", nodes=128, duration=4000.0, submit_time=100.0),
    ]


class TestSchedulerFaults:
    def test_fault_free_results_identical_with_and_without_module(self):
        base = Scheduler(4608).run(_jobs())
        assert base.n_failures == 0
        assert base.lost_node_hours == 0.0
        assert base.abandoned == ()
        assert base.goodput_fraction == 1.0

    def test_failures_requeue_and_account_lost_work(self):
        faults = FaultModel(
            node_mtbf_seconds=2 * YEAR, checkpoint_interval=3600.0, seed=0
        )
        base = Scheduler(4608).run(_jobs())
        result = Scheduler(4608).run(_jobs(), faults=faults)
        assert result.n_failures > 0
        assert result.n_requeues > 0
        assert result.lost_node_hours > 0.0
        assert result.makespan > base.makespan
        assert result.goodput_fraction < 1.0
        # all jobs still finish their full useful work
        assert result.delivered_node_hours == pytest.approx(
            base.delivered_node_hours
        )

    def test_deterministic_in_seed(self):
        faults = FaultModel(node_mtbf_seconds=1 * YEAR, seed=9)
        a = Scheduler(4608).run(_jobs(), faults=faults)
        b = Scheduler(4608).run(_jobs(), faults=faults)
        assert a.makespan == b.makespan
        assert a.n_failures == b.n_failures
        assert a.end_times == b.end_times

    def test_checkpointing_reduces_lost_work(self):
        cold = FaultModel(node_mtbf_seconds=0.5 * YEAR, seed=2)
        warm = FaultModel(
            node_mtbf_seconds=0.5 * YEAR, checkpoint_interval=1800.0, seed=2
        )
        lost_cold = Scheduler(4608).run(_jobs(), faults=cold).lost_node_hours
        lost_warm = Scheduler(4608).run(_jobs(), faults=warm).lost_node_hours
        assert lost_warm <= lost_cold

    def test_hopeless_mtbf_abandons_jobs(self):
        faults = FaultModel(
            node_mtbf_seconds=30 * 24 * 3600.0, max_requeues=2, seed=0
        )
        result = Scheduler(4608).run(_jobs(), faults=faults)
        assert result.abandoned  # the wide long job cannot survive
        assert result.goodput_fraction < 1.0

    def test_fault_model_validation(self):
        with pytest.raises(ConfigurationError):
            FaultModel(node_mtbf_seconds=0.0)
        with pytest.raises(ConfigurationError):
            FaultModel(checkpoint_interval=-1.0)
        with pytest.raises(ConfigurationError):
            FaultModel(max_requeues=-1)

    @pytest.mark.parametrize("field, value", [
        ("node_mtbf_seconds", math.nan),
        ("node_mtbf_seconds", math.inf),
        ("checkpoint_interval", math.nan),
        ("checkpoint_interval", math.inf),
    ])
    def test_non_finite_fault_model_rejected(self, field, value):
        # a NaN MTBF used to run fault-free; an infinite interval made
        # committed_before return NaN
        with pytest.raises(ConfigurationError, match="finite"):
            FaultModel(**{field: value})

    @pytest.mark.parametrize("field, value", [
        # a NaN or infinite max_requeues made every queued pair a near tie
        # and, as NaN, never abandoned a job
        ("max_requeues", math.nan),
        ("max_requeues", math.inf),
        ("max_requeues", 2.5),
        ("max_requeues", True),
        # a bad seed used to fail only inside numpy, at the run's first draw
        ("seed", -1),
        ("seed", 1.5),
        ("seed", math.nan),
        ("seed", True),
    ])
    def test_fault_model_counts_are_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an "
                                                     "integer"):
            FaultModel(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        import numpy as np

        faults = FaultModel(max_requeues=np.int64(2), seed=np.uint32(3))
        result = Scheduler(4608).run(_jobs(), faults=faults)
        assert result == Scheduler(4608).run(
            _jobs(), faults=FaultModel(max_requeues=2, seed=3)
        )

    def test_numpy_job_widths_keep_times_plain(self):
        """Numpy-integer job widths give the same result, printed the same,
        as int widths: failure times, start and end times, utilization and
        delivered node-hours stay plain floats, with faults on and off."""
        import numpy as np

        rng = np.random.default_rng(5)
        widths = rng.integers(1, 17, size=60)
        durations = rng.uniform(600.0, 7200.0, size=60).tolist()
        submits = np.sort(rng.uniform(0.0, 86400.0, size=60)).tolist()

        def stream(width):
            return [
                Job(f"j{i}", width(n), d, s, uses_ai=i % 3 == 0)
                for i, (n, d, s) in enumerate(zip(widths, durations, submits))
            ]

        faulty = FaultModel(
            node_mtbf_seconds=2 * 86400.0, checkpoint_interval=1800.0, seed=0
        )
        for faults in (faulty, None):
            plain = Scheduler(16).run(stream(int), faults=faults)
            numpy_widths = Scheduler(16).run(stream(np.int64), faults=faults)
            assert (plain.n_failures > 0) == (faults is not None)
            assert repr(numpy_widths) == repr(plain)


# -- report and goodput wiring ------------------------------------------------------


class TestResilienceReport:
    def test_metrics(self):
        report = ResilienceReport(
            name="job", n_nodes=100, node_mtbf_seconds=100 * 3600.0,
            wall_seconds=1100.0, useful_seconds=1000.0,
            n_failures=2, n_checkpoints=9, checkpoint_seconds=40.0,
            lost_seconds=60.0, analytical_overhead=0.1,
        )
        assert report.overhead_fraction == pytest.approx(100.0 / 1100.0)
        assert report.goodput_fraction == pytest.approx(1000.0 / 1100.0)
        assert report.lost_node_hours == pytest.approx(60.0 * 100 / 3600.0)
        assert report.system_mtbf == 3600.0
        assert report.matches_analytical(tolerance=0.2)

    def test_format_mentions_key_numbers(self):
        report = ResilienceReport(
            name="demo", n_nodes=4600, node_mtbf_seconds=5 * YEAR,
            wall_seconds=2000.0, useful_seconds=1900.0,
            analytical_overhead=0.05, raw_flops=1.5e18,
        )
        text = report.format()
        assert "demo" in text
        assert "goodput" in text
        assert "Young/Daly" in text
        assert "PFLOP/s" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceReport(
                name="bad", n_nodes=1, node_mtbf_seconds=1.0,
                wall_seconds=10.0, useful_seconds=20.0,
            )
        plain = ResilienceReport(
            name="no-analytic", n_nodes=1, node_mtbf_seconds=1.0,
            wall_seconds=10.0, useful_seconds=10.0,
        )
        with pytest.raises(ConfigurationError):
            plain.matches_analytical()


class TestGoodput:
    def test_goodput_below_raw_and_validated(self):
        from repro.apps.extreme_scale import get_app

        report = get_app("laanait").resilience_report(seed=0)
        assert report.n_nodes == 4600
        assert report.n_failures > 0
        raw = report.raw_flops
        goodput = report.goodput_flops
        assert raw is not None and goodput is not None
        assert 0.8 * raw < goodput < raw
        assert report.matches_analytical(tolerance=0.2)

    def test_shared_fs_overhead_exceeds_nvme(self):
        from repro.apps.extreme_scale import get_app

        app = get_app("kurth")
        nvme = app.resilience_report(tier="nvme", empirical=False)
        shared = app.resilience_report(tier="shared_fs", empirical=False)
        assert shared.analytical_overhead is not None
        assert nvme.analytical_overhead is not None
        assert shared.analytical_overhead > nvme.analytical_overhead

    @pytest.mark.parametrize("field, value", [
        ("node_mtbf_seconds", math.nan),
        ("node_mtbf_seconds", math.inf),
        ("state_bytes_per_node", math.nan),
        ("state_bytes_per_node", math.inf),
    ])
    def test_non_finite_inputs_rejected(self, field, value):
        from repro.apps.extreme_scale import get_app
        from repro.training.goodput import GoodputModel

        with pytest.raises(ConfigurationError, match="finite"):
            GoodputModel(job=get_app("khan").job(8), **{field: value})

    def test_nvme_tier_missing_on_a_machine_without_nvme(self):
        from repro.apps.extreme_scale import get_app
        from repro.machine import PERLMUTTER_LIKE
        from repro.training.goodput import GoodputModel

        job = get_app("kurth").job(512, machine=PERLMUTTER_LIKE)
        with pytest.raises(ConfigurationError, match="no node-local NVMe"):
            GoodputModel(job=job).write_time("nvme")

    def test_nvme_tier_is_the_jobs_machines(self):
        from repro.apps.extreme_scale import get_app
        from repro.machine import FRONTIER_LIKE
        from repro.training.goodput import GoodputModel

        model = GoodputModel(
            job=get_app("kurth").job(512, machine=FRONTIER_LIKE)
        )
        assert model.write_time("nvme") == model.plan().write_time_nvme(
            FRONTIER_LIKE.nvme
        )

    def test_shared_fs_tier_is_the_jobs_machines(self):
        from repro.apps.extreme_scale import get_app
        from repro.machine import FRONTIER_LIKE, SUMMIT
        from repro.training.goodput import GoodputModel

        model = GoodputModel(
            job=get_app("kurth").job(512, machine=FRONTIER_LIKE)
        )
        plan = model.plan()
        orion = plan.write_time_shared(FRONTIER_LIKE.shared_fs)
        assert model.write_time("shared_fs") == orion
        assert orion != plan.write_time_shared(SUMMIT.shared_fs)

    def test_analytic_only_report_is_self_consistent(self):
        from repro.apps.extreme_scale import get_app

        report = get_app("khan").resilience_report(empirical=False)
        assert report.analytical_overhead == pytest.approx(
            report.overhead_fraction, rel=1e-6
        )


class TestCliResilience:
    def test_resilience_command(self, capsys):
        from repro.cli import main

        assert main(["resilience", "--app", "khan", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ResilienceReport" in out
        assert "Young/Daly" in out
        assert "matches" in out

    def test_resilience_analytic_only(self, capsys):
        from repro.cli import main

        assert main(["resilience", "--analytic-only"]) == 0
        out = capsys.readouterr().out
        assert "expected goodput" in out
        assert "matches" not in out

    def test_unknown_app_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["resilience", "--app", "alexnet"])
