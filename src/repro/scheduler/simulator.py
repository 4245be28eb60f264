"""Event-driven batch-scheduler simulation.

A simple but faithful space-sharing model: the machine is a pool of
``n_nodes``; at every scheduling point (job arrival or completion) jobs
are started in the policy's queue order, with conservative backfill (a
job may jump ahead only if it fits in the currently idle nodes AND would
finish before the queue head could start). The queue is kept in that
order as jobs enter and leave it rather than re-sorted at each point:
capability aging lifts every queued job at the same rate, so the order
never changes between events (:func:`~repro.scheduler.policy.queue_key`).

With a :class:`~repro.scheduler.faults.FaultModel`, running jobs die at
exponential times drawn from the job-wide MTBF (per-node MTBF divided by
the job's width), taken in blocks of :data:`FAILURE_DRAW_BLOCK` from the
run's own generator; a dead job is requeued — resuming from its last
checkpoint when the model checkpoints, restarting cold otherwise — and the
work between checkpoint and failure is charged to ``lost_node_hours``.
Without a fault model the code path, and every reported number, is
identical to the fault-free simulator.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.scheduler.faults import FaultModel
from repro.scheduler.jobs import Job, is_integer
from repro.scheduler.policy import (
    Policy,
    priority_key,
    queue_key,
    tie_margin,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.telemetry import Telemetry

#: Failure times come from the fault model's generator this many at a time.
FAILURE_DRAW_BLOCK = 4096


def _standard_exponentials(rng: np.random.Generator) -> Iterator[float]:
    """``rng``'s standard exponential variates, drawn in blocks of
    :data:`FAILURE_DRAW_BLOCK`.

    ``standard_exponential(n)`` makes the same ``n`` draws, in order, as
    ``n`` scalar calls, and ``rng.exponential(scale)`` is
    ``scale * standard_exponential()``; so ``scale * next(draws)`` is,
    float for float, the ``rng.exponential(scale)`` a scalar draw gives.
    """
    while True:
        yield from rng.standard_exponential(FAILURE_DRAW_BLOCK).tolist()


@dataclass(frozen=True)
class ScheduleResult:
    """Aggregate outcome of a scheduling run."""

    makespan: float
    utilization: float  # busy node-seconds / (nodes * makespan)
    mean_wait: float
    max_wait: float
    mean_wait_wide: float  # jobs using >= 20 % of the machine
    delivered_node_hours: float
    ai_node_hours: float
    start_times: dict[str, float]
    end_times: dict[str, float]
    n_failures: int = 0
    n_requeues: int = 0
    lost_node_hours: float = 0.0
    abandoned: tuple[str, ...] = ()

    @property
    def ai_share(self) -> float:
        """AI/ML share of delivered node-hours — the 'actual hours used'
        metric Section II-C contrasts with allocation counting."""
        if self.delivered_node_hours == 0:
            return 0.0
        return self.ai_node_hours / self.delivered_node_hours

    @property
    def goodput_fraction(self) -> float:
        """Useful node-hours over useful + lost — 1.0 on a fault-free run."""
        total = self.delivered_node_hours + self.lost_node_hours
        if total == 0:
            return 1.0
        return self.delivered_node_hours / total


class Scheduler:
    """Space-sharing scheduler over a homogeneous node pool."""

    def __init__(self, n_nodes: int, policy: Policy = Policy.CAPABILITY):
        if not is_integer(n_nodes, 1):
            raise ConfigurationError(
                f"n_nodes must be an integer >= 1, got {n_nodes!r}"
            )
        # a numpy int would turn every node count, and the reported
        # numbers, into numpy scalars
        self.n_nodes = int(n_nodes)
        self.policy = policy

    def run(
        self,
        jobs: list[Job],
        faults: FaultModel | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> ScheduleResult:
        """Simulate the schedule; optionally record telemetry.

        Arrivals are the submit-sorted job list, consumed through an index
        cursor. Running executions live in one list of
        ``(end_time, seq, job)`` kept sorted by ``insort``: ``seq`` is
        unique, so no comparison ever reaches a job, completions leave from
        the front in ``(end_time, seq)`` order, and the head's reservation
        walks the list as it stands.

        The queue is a list kept sorted by the policy's ``now``-free
        :func:`~repro.scheduler.policy.queue_key`; a job enters after every
        job with an equal key, so identical jobs keep their entry order.
        While two queued capability keys lie within
        :func:`~repro.scheduler.policy.tie_margin` of each other, float
        rounding could order them differently at different times, so each
        scheduling point stable-sorts the queue by
        :func:`~repro.scheduler.policy.priority_key` at ``now`` instead.
        Either way the start order is that of a per-event sort, float for
        float.

        Each scheduling point runs one pass: start jobs from the head while
        it fits, then one backfill scan of the rest of the queue, which
        works out the head's reservation only once some job fits. A point
        where exactly one job arrived, no execution ended, ``ties`` is 0
        and ``queue[0]`` is the job that headed the queue after the
        previous pass tests only the arrival for backfill. The idle count
        and the running set are those the previous pass left, so the head
        still does not fit, and neither does any queued job that did not
        fit then. A job that fit then failed ``t' + remaining > H'``: every
        job that pass backfilled ends by ``H'``, so the head's reservation
        now is ``H <= H'``, and ``now > t'``. So only the arrival, at
        ``bisect_right(keys, key(job)) - 1``, can start, and it starts
        exactly when the full pass would start it.

        With a :class:`~repro.telemetry.Telemetry` handle the run records
        queue-wait spans, per-execution job spans (on per-node tracks when
        the machine is small enough, one track per job otherwise),
        failure/requeue instant events, busy-node and queue-depth counter
        tracks, and the wait/failure metrics. The simulated schedule — and
        every number in the returned :class:`ScheduleResult` — is identical
        with telemetry on or off.
        """
        if not jobs:
            raise ConfigurationError("no jobs to schedule")
        # job_id -> work still to do; only a fault changes it
        remaining: dict[str, float] = {}
        for job in jobs:
            if job.nodes > self.n_nodes:
                raise ConfigurationError(
                    f"{job.job_id} needs {job.nodes} nodes, machine has "
                    f"{self.n_nodes}"
                )
            if job.job_id in remaining:
                raise ConfigurationError(f"duplicate job_id {job.job_id!r}")
            remaining[job.job_id] = job.duration

        if faults is not None:
            draws = _standard_exponentials(faults.rng())
            mtbf = faults.node_mtbf_seconds
        requeues = {job.job_id: 0 for job in jobs}
        abandoned: list[str] = []
        n_failures = 0
        lost_node_seconds = 0.0
        occupied_node_seconds = 0.0

        pending = sorted(jobs, key=lambda j: j.submit_time)
        n_pending = len(pending)
        next_pending = 0  # arrival cursor into ``pending``
        # ``keys`` holds the queued jobs' ``queue_key`` values, sorted;
        # ``ties`` counts neighbours in it within the tie margin. While
        # ``ties`` is 0, ``queue`` lists the jobs in ``keys`` order. While it
        # is not, ``queue`` is in the order of the last per-event sort with
        # later entries appended, which is what that sort expects.
        policy = self.policy
        key = queue_key(policy)
        guard = policy is Policy.CAPABILITY
        # a bound on ``now``: nodes sit all idle only while the queue is
        # empty, so no event comes later than the last arrival plus every
        # execution (at most ``executions_per_job`` per job) back to back
        executions_per_job = 1 + (0 if faults is None else faults.max_requeues)
        horizon = pending[-1].submit_time + executions_per_job * sum(
            job.duration for job in jobs
        )
        margin = tie_margin(self.n_nodes, horizon)
        queue: list[Job] = []
        keys: list[tuple] = []
        ties = 0
        entered: list[Job] = []  # this event's new queue entries, in order
        # (end_time, seq, job), sorted; fault mode resolves seq -> execution
        running: list[tuple[float, int, Job]] = []
        executions: dict[int, tuple[float, bool]] = {}  # seq -> (run_s, failed)
        seq = 0
        idle = self.n_nodes
        now = 0.0
        starts: dict[str, float] = {}
        ends: dict[str, float] = {}

        # -- telemetry state (inert when telemetry is None) --------------------
        node_tracks = False
        if telemetry is not None:
            # imported only when traced: the untraced replay loads no
            # telemetry package at all
            from repro.telemetry import DEFAULT_MAX_NODE_TRACKS

            node_tracks = self.n_nodes <= DEFAULT_MAX_NODE_TRACKS
        free_nodes = list(range(self.n_nodes)) if node_tracks else []
        open_runs: dict[int, tuple[list, list[int]]] = {}  # seq -> spans, nodes
        open_waits: dict[str, object] = {}  # job_id -> open wait span

        def snap() -> None:
            """Sample machine occupancy and queue depth counter tracks."""
            assert telemetry is not None
            telemetry.sample(
                "machine.busy_nodes", self.n_nodes - idle, self.n_nodes,
                facility="scheduler", time=now,
            )
            telemetry.sample(
                "scheduler.queue_depth", len(queue),
                facility="scheduler", time=now,
            )

        def enqueued(job: Job, requeue: bool = False) -> None:
            """A job entered the queue: open its wait span."""
            assert telemetry is not None
            open_waits[job.job_id] = telemetry.begin(
                f"wait:{job.job_id}", "queue-wait",
                facility="scheduler", track="queue", time=now,
                nodes=job.nodes, requeue=requeue,
            )

        def launch(job: Job) -> None:
            """Start (or restart) a job; in fault mode, pre-draw its fate."""
            nonlocal idle, seq
            self._start(job, now, starts)
            if faults is None:
                insort(running, (now + job.duration, seq, job))
            else:
                left = remaining[job.job_id]
                # a numpy-integer width would make this, and every time
                # a failure moves, a numpy scalar
                t_fail = float(mtbf / job.nodes * next(draws))
                if t_fail < left:
                    executions[seq] = (t_fail, True)
                    insort(running, (now + t_fail, seq, job))
                else:
                    executions[seq] = (left, False)
                    insort(running, (now + left, seq, job))
            if telemetry is not None:
                wait_span = open_waits.pop(job.job_id, None)
                if wait_span is not None:
                    ended = telemetry.end(wait_span, time=now)
                    telemetry.metrics.histogram(
                        "scheduler.wait_seconds"
                    ).record(ended.duration)
                if node_tracks:
                    assigned = free_nodes[: job.nodes]
                    del free_nodes[: job.nodes]
                    spans = [
                        telemetry.begin(
                            job.job_id, "job", facility="machine",
                            track=f"node {i}", time=now, nodes=job.nodes,
                        )
                        for i in assigned
                    ]
                else:
                    assigned = []
                    spans = [
                        telemetry.begin(
                            job.job_id, "job", facility="machine",
                            track=job.job_id, time=now, nodes=job.nodes,
                        )
                    ]
                open_runs[seq] = (spans, assigned)
            seq += 1
            idle -= job.nodes
            if telemetry is not None:
                snap()

        def finish_execution(done_seq: int, job: Job, failed: bool) -> None:
            """Close the execution's spans and return its node indices."""
            assert telemetry is not None
            spans, assigned = open_runs.pop(done_seq)
            for span in spans:
                telemetry.end(span, time=now, failed=failed)
            free_nodes.extend(assigned)
            free_nodes.sort()

        def near(i: int, j: int) -> bool:
            """Whether ``keys[i]`` and ``keys[j]`` (``i < j``) are distinct
            capability keys within the tie margin, which float rounding
            could swap or tie at some ``now``."""
            return (
                0 <= i and j < len(keys) and keys[i] != keys[j]
                and not keys[j][0] - keys[i][0] > margin
            )

        def ties_at(i: int) -> int:
            """Near ties ``keys[i]`` makes, less the one it splits."""
            return near(i - 1, i) + near(i, i + 1) - near(i - 1, i + 1)

        def enqueue(job: Job) -> None:
            """Queue ``job`` after every job with an equal key."""
            nonlocal ties
            k = key(job)
            i = bisect_right(keys, k)
            keys.insert(i, k)
            entered.append(job)
            if ties:
                queue.append(job)
                ties += ties_at(i)
                return
            queue.insert(i, job)
            if guard:
                ties = ties_at(i)
                if ties:
                    # the first near tie: the per-event sort keeps the list
                    # order of jobs whose priority keys are equal, so move
                    # this event's entries to the end, in entry order
                    fresh = {id(j) for j in entered}
                    queue[:] = [j for j in queue if id(j) not in fresh]
                    queue.extend(entered)

        def take(i: int) -> Job:
            """Remove ``queue[i]`` and its key; return the job."""
            nonlocal ties
            job = queue.pop(i)
            if ties:
                # ``queue`` is out of ``keys`` order here; equal keys are
                # interchangeable, so any match will do
                i = bisect_left(keys, key(job))
                ties -= ties_at(i)
            del keys[i]
            return job

        def reservation(needed: int) -> float:
            """When ``needed`` more nodes will be idle, as running jobs end."""
            freed = 0
            head_start = now
            for end_time, _, job in running:
                freed += job.nodes
                head_start = end_time
                if freed >= needed:
                    break
            return head_start

        def try_start() -> None:
            if ties:
                queue.sort(key=lambda j: priority_key(policy, j, now))
            entered.clear()
            while queue and queue[0].nodes <= idle:
                launch(take(0))
            # Conservative backfill: a job may jump the blocked head if it
            # fits the idle nodes and its remaining work ends before the
            # head could start. The head's start is worked out only once a
            # job fits, and one pass suffices: launches only shrink ``idle``
            # and pull that start earlier, so a rescan could start nothing.
            head_start = None
            i = 1
            for candidate in queue[1:]:
                if candidate.nodes <= idle:
                    if head_start is None:
                        head_start = reservation(queue[0].nodes - idle)
                    if now + remaining[candidate.job_id] <= head_start:
                        launch(take(i))
                        continue
                i += 1

        def backfill_arrival(job: Job) -> None:
            """The pass at a point where only ``job`` arrived and nothing
            else changed (the invariant in :meth:`run`'s docstring): test
            ``job`` alone."""
            entered.clear()
            if job.nodes <= idle and now + remaining[job.job_id] <= (
                reservation(queue[0].nodes - idle)
            ):
                launch(take(bisect_right(keys, key(job)) - 1))

        head = None  # ``queue[0]`` after the previous pass
        inf = float("inf")
        while next_pending < n_pending or queue or running:
            # next event: job arrival or completion
            next_arrival = (
                pending[next_pending].submit_time
                if next_pending < n_pending else inf
            )
            next_completion = running[0][0] if running else inf
            now = min(next_arrival, next_completion)
            if now == inf:
                raise AssertionError("scheduler deadlock")
            first = next_pending
            while (
                next_pending < n_pending
                and pending[next_pending].submit_time <= now
            ):
                job = pending[next_pending]
                next_pending += 1
                enqueue(job)
                if telemetry is not None:
                    telemetry.instant(
                        f"submit:{job.job_id}", "scheduler",
                        facility="scheduler", track="queue", time=now,
                        nodes=job.nodes,
                    )
                    enqueued(job)
            if telemetry is not None and queue:
                snap()
            while running and running[0][0] <= now:
                _, done_seq, job = running.pop(0)
                idle += job.nodes
                if faults is None:
                    ends[job.job_id] = now
                    if telemetry is not None:
                        finish_execution(done_seq, job, failed=False)
                        snap()
                    continue
                run_seconds, failed = executions.pop(done_seq)
                occupied_node_seconds += run_seconds * job.nodes
                if telemetry is not None:
                    finish_execution(done_seq, job, failed=failed)
                    snap()
                if not failed:
                    remaining[job.job_id] = 0.0
                    ends[job.job_id] = now
                    continue
                n_failures += 1
                committed = min(
                    faults.committed_before(run_seconds),
                    remaining[job.job_id],
                )
                remaining[job.job_id] -= committed
                lost_node_seconds += (run_seconds - committed) * job.nodes
                if telemetry is not None:
                    telemetry.instant(
                        f"failure:{job.job_id}", "fault",
                        facility="machine", track="faults", time=now,
                        nodes=job.nodes,
                        lost_node_seconds=(run_seconds - committed) * job.nodes,
                    )
                    telemetry.metrics.counter("scheduler.failures").inc()
                    telemetry.metrics.counter(
                        "scheduler.lost_node_seconds"
                    ).inc((run_seconds - committed) * job.nodes)
                if requeues[job.job_id] >= faults.max_requeues:
                    abandoned.append(job.job_id)
                    ends[job.job_id] = now
                    if telemetry is not None:
                        telemetry.instant(
                            f"abandon:{job.job_id}", "scheduler",
                            facility="scheduler", track="queue", time=now,
                        )
                else:
                    requeues[job.job_id] += 1
                    enqueue(job)
                    if telemetry is not None:
                        telemetry.instant(
                            f"requeue:{job.job_id}", "scheduler",
                            facility="scheduler", track="queue", time=now,
                            attempt=requeues[job.job_id] + 1,
                        )
                        telemetry.metrics.counter("scheduler.requeues").inc()
                        enqueued(job, requeue=True)
            if (
                now < next_completion
                and next_pending - first == 1
                and not ties
                and queue[0] is head
            ):
                backfill_arrival(pending[first])
            else:
                try_start()
            head = queue[0] if queue else None

        makespan = max(ends.values())
        waits = [starts[j.job_id] - j.submit_time for j in jobs]
        wide_waits = [
            starts[j.job_id] - j.submit_time
            for j in jobs
            if j.nodes >= 0.2 * self.n_nodes
        ]
        if faults is None:
            busy = sum(j.node_seconds for j in jobs)
            ai_seconds = sum(j.node_seconds for j in jobs if j.uses_ai)
            utilization = busy / (self.n_nodes * makespan)
        else:
            # delivered = useful work committed or completed; occupied adds
            # the wall-clock later rolled back by failures
            busy = sum(
                (j.duration - remaining[j.job_id]) * j.nodes for j in jobs
            )
            ai_seconds = sum(
                (j.duration - remaining[j.job_id]) * j.nodes
                for j in jobs
                if j.uses_ai
            )
            utilization = occupied_node_seconds / (self.n_nodes * makespan)
        result = ScheduleResult(
            makespan=makespan,
            utilization=utilization,
            mean_wait=sum(waits) / len(waits),
            max_wait=max(waits),
            mean_wait_wide=(
                sum(wide_waits) / len(wide_waits) if wide_waits else 0.0
            ),
            delivered_node_hours=busy / 3600.0,
            ai_node_hours=ai_seconds / 3600.0,
            start_times=starts,
            end_times=ends,
            n_failures=n_failures,
            n_requeues=sum(requeues.values()),
            lost_node_hours=lost_node_seconds / 3600.0,
            abandoned=tuple(abandoned),
        )
        if telemetry is not None:
            gauges = telemetry.metrics
            gauges.gauge("scheduler.makespan_seconds").set(result.makespan)
            gauges.gauge("scheduler.utilization").set(result.utilization)
            gauges.gauge(
                "scheduler.goodput_fraction"
            ).set(result.goodput_fraction)
            gauges.gauge(
                "scheduler.lost_node_hours"
            ).set(result.lost_node_hours)
            gauges.counter(
                "scheduler.delivered_node_seconds"
            ).inc(busy)
            # end-of-run is a quiescent point: push partial shards to disk
            telemetry.flush()
        return result

    @staticmethod
    def _start(job: Job, now: float, starts: dict[str, float]) -> None:
        if now < job.submit_time:
            raise AssertionError("job started before submission")
        starts.setdefault(job.job_id, now)
