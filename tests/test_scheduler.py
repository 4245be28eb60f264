"""Tests for the batch-scheduler simulation."""

import hashlib
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.portfolio import generate_portfolio
from repro.scheduler import (
    FaultModel,
    Job,
    Policy,
    Scheduler,
    campaign_from_portfolio,
)
from repro.scheduler import jobs as jobs_module
from repro.scheduler.jobs import (
    SUMMIT_QUEUE_BINS,
    synthetic_facility_year,
    walltime_limit,
)
from repro.scheduler.policy import priority_key
from repro.scheduler.simulator import (
    FAILURE_DRAW_BLOCK,
    _standard_exponentials,
)


class TestJob:
    def test_node_seconds(self):
        job = Job("j", nodes=10, duration=100.0, submit_time=0.0)
        assert job.node_seconds == 1000.0

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            Job("j", nodes=0, duration=1.0, submit_time=0.0)
        with pytest.raises(ConfigurationError):
            Job("j", nodes=1, duration=0.0, submit_time=0.0)
        with pytest.raises(ConfigurationError):
            Job("j", nodes=1, duration=1.0, submit_time=-1.0)

    def test_nan_width_rejected(self):
        # used to construct, and then deadlock the scheduler
        with pytest.raises(ConfigurationError, match="nodes must be >= 1"):
            Job("j", nodes=math.nan, duration=1.0, submit_time=0.0)

    @pytest.mark.parametrize("nodes", [2.5, 2.0, True, "2"])
    def test_non_integer_width_rejected(self, nodes):
        # 2.5 used to construct a job on two and a half nodes
        with pytest.raises(ConfigurationError, match="an integer"):
            Job("j", nodes=nodes, duration=1.0, submit_time=0.0)

    def test_numpy_width_stored_as_int(self):
        job = Job("j", nodes=np.int64(3), duration=1.0, submit_time=0.0)
        assert type(job.nodes) is int and job.nodes == 3

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ConfigurationError, match="finite"):
            Job("j", nodes=1, duration=duration, submit_time=0.0)

    @pytest.mark.parametrize("submit", [math.nan, math.inf])
    def test_non_finite_submit_time_rejected(self, submit):
        with pytest.raises(ConfigurationError, match="finite"):
            Job("j", nodes=1, duration=1.0, submit_time=submit)


class TestWalltimeLimits:
    def test_wider_jobs_get_longer_walltime(self):
        assert walltime_limit(4000) >= walltime_limit(100) >= walltime_limit(2)

    def test_bins_cover_all_sizes(self):
        for nodes in (1, 45, 46, 92, 921, 922, 2765, 4608):
            assert walltime_limit(nodes) > 0

    def test_smallest_bin_two_hours(self):
        assert walltime_limit(1) == 2 * 3600.0

    def test_capability_bin_24_hours(self):
        assert walltime_limit(SUMMIT_QUEUE_BINS[0][0]) == 24 * 3600.0

    @pytest.mark.parametrize("nodes", [math.nan, 0, -1])
    def test_invalid_width_rejected(self, nodes):
        # NaN used to fall through every bin to an AssertionError
        with pytest.raises(ConfigurationError, match="nodes must be >= 1"):
            walltime_limit(nodes)

    def test_generated_limits_follow_the_bins(self):
        """Every job of a generated year fits its width's walltime bin."""
        for job in synthetic_facility_year(seed=3, n_nodes=4608,
                                           horizon=3 * 86400.0):
            assert 300.0 <= job.duration <= walltime_limit(job.nodes)


class TestPriorityKey:
    def test_fifo_orders_by_submit(self):
        early = Job("a", 1, 10.0, submit_time=0.0)
        late = Job("b", 4000, 10.0, submit_time=5.0)
        assert priority_key(Policy.FIFO, early, 10.0) < priority_key(
            Policy.FIFO, late, 10.0
        )

    def test_capability_prefers_wide(self):
        wide = Job("w", 4000, 10.0, submit_time=5.0)
        narrow = Job("n", 2, 10.0, submit_time=0.0)
        assert priority_key(Policy.CAPABILITY, wide, 10.0) < priority_key(
            Policy.CAPABILITY, narrow, 10.0
        )

    def test_capability_aging_lifts_waiting_jobs(self):
        narrow = Job("n", 2, 10.0, submit_time=0.0)
        fresh_mid = Job("m", 50, 10.0, submit_time=0.0)
        long_wait = 3600.0 * 24
        assert priority_key(Policy.CAPABILITY, narrow, long_wait) < priority_key(
            Policy.CAPABILITY, fresh_mid, 0.0
        )


class TestScheduler:
    @pytest.mark.parametrize("n_nodes", [
        math.nan,  # used to construct, then raise "scheduler deadlock"
        math.inf,  # used to report utilization 0.0
        2.5,  # used to run on two and a half nodes
        16.0,
        True,
        "16",
        0,
    ])
    def test_width_must_be_a_positive_integer(self, n_nodes):
        with pytest.raises(ConfigurationError,
                           match="n_nodes must be an integer >= 1"):
            Scheduler(n_nodes)

    def test_numpy_width_reports_plain_numbers(self):
        jobs = [Job("a", 3, 100.0, 0.0), Job("b", 4, 50.0, 10.0)]
        assert repr(Scheduler(np.int64(4)).run(jobs)) == repr(
            Scheduler(4).run(jobs)
        )

    @pytest.mark.parametrize("faults", [None, FaultModel(seed=0)])
    def test_duplicate_job_ids_rejected(self, faults):
        """Results are keyed by job id, so a repeated id would merge two
        jobs' starts and remaining work into one entry."""
        jobs = [Job("a", 4, 300.0, 0.0), Job("a", 4, 300.0, 0.0)]
        with pytest.raises(ConfigurationError, match="duplicate job_id"):
            Scheduler(4).run(jobs, faults=faults)

    def test_single_job(self):
        result = Scheduler(10).run([Job("j", 4, 100.0, 0.0)])
        assert result.makespan == 100.0
        assert result.mean_wait == 0.0
        assert result.utilization == pytest.approx(0.4)

    def test_serialisation_when_full(self):
        jobs = [Job(f"j{i}", 8, 100.0, 0.0) for i in range(3)]
        result = Scheduler(10).run(jobs)
        assert result.makespan == 300.0

    def test_packing_when_jobs_fit(self):
        jobs = [Job(f"j{i}", 5, 100.0, 0.0) for i in range(4)]
        result = Scheduler(10).run(jobs)
        assert result.makespan == 200.0
        assert result.utilization == pytest.approx(1.0)

    def test_backfill_uses_idle_nodes(self):
        # wide job blocked behind a long runner; a short small job should
        # backfill into the idle nodes without delaying the wide job
        jobs = [
            Job("long", 6, 1000.0, 0.0),
            Job("wide", 10, 100.0, 1.0),
            Job("small", 2, 50.0, 2.0),
        ]
        result = Scheduler(10, Policy.FIFO).run(jobs)
        assert result.start_times["small"] < result.start_times["wide"]
        assert result.start_times["wide"] == 1000.0  # not delayed by backfill

    def test_backfill_never_delays_queue_head(self):
        jobs = [
            Job("long", 6, 1000.0, 0.0),
            Job("wide", 10, 100.0, 1.0),
            Job("blocker", 4, 5000.0, 2.0),  # fits now but would delay wide
        ]
        result = Scheduler(10, Policy.FIFO).run(jobs)
        assert result.start_times["wide"] == 1000.0
        assert result.start_times["blocker"] >= result.start_times["wide"]

    def test_capability_policy_reduces_wide_job_wait(self):
        """Under a loaded queue of mostly-small jobs, capability priority
        cuts the waits of the wide (capability) jobs relative to
        smallest-first, at the cost of mean wait — the Summit trade-off."""
        rng = np.random.default_rng(0)
        jobs = []
        for i in range(300):
            nodes = int(rng.choice([1, 2, 4, 8, 32, 512],
                                   p=[.3, .25, .2, .1, .1, .05]))
            jobs.append(Job(f"j{i}", nodes, float(rng.uniform(600, 7200)),
                            float(rng.uniform(0, 3600))))
        cap = Scheduler(4096, Policy.CAPABILITY).run(jobs)
        small = Scheduler(4096, Policy.SMALLEST_FIRST).run(jobs)
        assert cap.mean_wait_wide <= small.mean_wait_wide
        assert cap.mean_wait >= small.mean_wait  # the price of capability

    def test_oversized_job_rejected(self):
        with pytest.raises(ConfigurationError):
            Scheduler(10).run([Job("j", 11, 1.0, 0.0)])

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            Scheduler(10).run([])

    def test_all_jobs_complete(self):
        rng = np.random.default_rng(1)
        jobs = [
            Job(f"j{i}", int(rng.integers(1, 64)), float(rng.uniform(60, 600)),
                float(rng.uniform(0, 100)))
            for i in range(60)
        ]
        result = Scheduler(128).run(jobs)
        assert set(result.end_times) == {j.job_id for j in jobs}
        for job in jobs:
            assert result.start_times[job.job_id] >= job.submit_time
            assert result.end_times[job.job_id] == pytest.approx(
                result.start_times[job.job_id] + job.duration
            )

    def test_concurrent_node_usage_never_exceeds_capacity(self):
        rng = np.random.default_rng(2)
        jobs = [
            Job(f"j{i}", int(rng.integers(1, 40)), float(rng.uniform(60, 900)),
                float(rng.uniform(0, 300)))
            for i in range(50)
        ]
        capacity = 64
        result = Scheduler(capacity).run(jobs)
        events = []
        for job in jobs:
            events.append((result.start_times[job.job_id], job.nodes))
            events.append((result.end_times[job.job_id], -job.nodes))
        in_use = 0
        for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
            in_use += delta
            assert in_use <= capacity


class TestCampaignGeneration:
    def test_jobs_per_project(self):
        projects = generate_portfolio()[:50]
        jobs = campaign_from_portfolio(projects, jobs_per_project=3, seed=0)
        assert len(jobs) == 150

    def test_jobs_sorted_by_submit_time(self):
        projects = generate_portfolio()[:30]
        jobs = campaign_from_portfolio(projects, seed=1)
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)

    def test_durations_respect_walltime_limits(self):
        projects = generate_portfolio()[:100]
        jobs = campaign_from_portfolio(projects, seed=2)
        for job in jobs:
            assert job.duration <= walltime_limit(job.nodes) + 1e-9

    def test_ai_flag_propagates(self):
        projects = generate_portfolio()
        jobs = campaign_from_portfolio(projects[:20] + projects[-20:], seed=3)
        flags = {j.uses_ai for j in jobs}
        assert flags == {True, False}  # generator emits AI first, none last

    def test_ai_share_of_delivered_hours_computable(self):
        rng = np.random.default_rng(4)
        projects = generate_portfolio()
        sample = [projects[i] for i in rng.choice(len(projects), 120, replace=False)]
        jobs = campaign_from_portfolio(sample, jobs_per_project=2,
                                       horizon=24 * 3600.0, seed=4)
        result = Scheduler(4608).run(jobs)
        assert 0.2 < result.ai_share < 0.8
        assert result.delivered_node_hours > 0


class TestFacilityYearInputs:
    @pytest.mark.parametrize("name, value", [
        ("horizon", math.nan),
        ("horizon", math.inf),
        ("horizon", -math.inf),
        ("horizon", 0.0),
        ("horizon", 1e308),  # finite, but the node-second budget is not
        ("ai_fraction", math.nan),
        ("ai_fraction", -0.1),
        ("ai_fraction", 2.0),
    ])
    def test_unhonourable_inputs_rejected_before_any_draw(self, name, value,
                                                          monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew from the generator before checking")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ConfigurationError):
            synthetic_facility_year(n_nodes=64, **{name: value})

    @pytest.mark.parametrize("n_nodes", [2.5, 64.0, True, math.nan, 0])
    def test_width_must_be_a_positive_integer(self, n_nodes, monkeypatch):
        # 2.5 used to build jobs of float widths, True a 1-node stream
        def no_draws(*args, **kwargs):
            raise AssertionError("drew from the generator before checking")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ConfigurationError,
                           match="n_nodes must be an integer >= 1"):
            synthetic_facility_year(n_nodes=n_nodes, horizon=86400.0)

    def test_numpy_width_builds_the_same_stream(self):
        day = 86400.0
        assert synthetic_facility_year(n_nodes=np.int64(64), horizon=day) \
            == synthetic_facility_year(n_nodes=64, horizon=day)

    @pytest.mark.parametrize("n_nodes, horizon", [
        (1, 1e300),  # finite budget, ~3e296 jobs: used to never return
        (4608, 61 * 365 * 86400.0),  # ~5.5 million jobs
    ])
    def test_overlong_stream_rejected_before_any_job(self, n_nodes, horizon,
                                                     monkeypatch):
        def no_jobs(*args, **kwargs):
            raise AssertionError("built a job before checking the length")

        monkeypatch.setattr(jobs_module, "Job", no_jobs)
        with pytest.raises(ConfigurationError, match="jobs; at most"):
            synthetic_facility_year(n_nodes=n_nodes, horizon=horizon)

    def test_fraction_bounds_are_honoured(self):
        day = 86400.0
        assert not any(j.uses_ai for j in synthetic_facility_year(
            n_nodes=64, horizon=day, ai_fraction=0.0))
        assert all(j.uses_ai for j in synthetic_facility_year(
            n_nodes=64, horizon=day, ai_fraction=1.0))


class TestPolicyAblation:
    """A 1,000-job day on Summit under each queue policy (Section II-B:
    allocation favours jobs that need the full capability)."""

    @pytest.fixture(scope="class")
    def results(self):
        projects = generate_portfolio()
        rng = np.random.default_rng(1)
        sample = [projects[i]
                  for i in rng.choice(len(projects), 250, replace=False)]
        jobs = campaign_from_portfolio(
            sample, jobs_per_project=4, horizon=24 * 3600.0, seed=0
        )
        return {
            policy: Scheduler(4608, policy).run(jobs)
            for policy in (Policy.FIFO, Policy.CAPABILITY,
                           Policy.SMALLEST_FIRST)
        }

    def test_capability_cuts_wide_job_wait(self, results):
        wide = {policy: r.mean_wait_wide for policy, r in results.items()}
        assert wide[Policy.CAPABILITY] < wide[Policy.FIFO]
        assert wide[Policy.CAPABILITY] < wide[Policy.SMALLEST_FIRST]
        assert results[Policy.CAPABILITY].utilization > 0.8

    def test_ai_share_of_delivered_hours(self, results):
        """Section II-C's alternative metric: AI/ML share of node-hours."""
        assert 0.2 < results[Policy.CAPABILITY].ai_share < 0.8


class TestFacilityYearDigest:
    """The Summit-scale year, pinned by the ``output_digest`` perfbench's
    facility-year workload reports: the first 16 hex digits of the
    SHA-256 of the result's ``repr``. The goldens under ``tests/goldens/``
    replay a 64-node, 4-day stream; this pins the 4,608-node year that a
    change meant only for speed must reproduce byte for byte."""

    @pytest.fixture(scope="class")
    def jobs(self):
        return synthetic_facility_year(seed=0, n_nodes=4608)

    @staticmethod
    def _digest(result) -> str:
        return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()[:16]

    def test_year_with_faults(self, jobs):
        faults = FaultModel(checkpoint_interval=3600.0, seed=0)
        result = Scheduler(4608).run(jobs, faults=faults)
        assert self._digest(result) == "bc608f6324c1bb2e"

    def test_year_without_faults(self, jobs):
        result = Scheduler(4608).run(jobs, faults=None)
        assert self._digest(result) == "53233dc296fc7c77"


class TestFailureDraws:
    def test_block_draws_equal_scalar_draws(self):
        """``scale * z`` over blocks of standard exponentials is, float for
        float, one scalar ``exponential(scale)`` call per draw, across
        block boundaries and for every job width's scale."""
        n = 2 * FAILURE_DRAW_BLOCK + 7
        mtbf = FaultModel().node_mtbf_seconds
        scales = [mtbf / (1 + i % 4608) for i in range(n)]
        draws = _standard_exponentials(np.random.default_rng(11))
        blocked = [scale * next(draws) for scale in scales]
        scalar_rng = np.random.default_rng(11)
        scalar = [float(scalar_rng.exponential(scale)) for scale in scales]
        assert blocked == scalar
