"""The batch scheduler with a per-event queue sort, kept as a test oracle.

:class:`SortingScheduler` is :class:`~repro.scheduler.simulator.Scheduler`
as it was before the queue kept its order: at every scheduling point the
whole queue is stable-sorted by
:func:`~repro.scheduler.policy.priority_key` at ``now``, and a backfill
pass that starts a job is followed by another pass. It shares no queue
code with production (no ``queue_key``, no ``bisect``, no tie margin), so
any divergence between the two is a bug in the kept order, its tie guard
or the pruned backfill scan. Inputs are validated by production's
``Job``; the oracle itself checks only the machine size.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.scheduler.faults import FaultModel
from repro.scheduler.jobs import Job
from repro.scheduler.policy import priority_key
from repro.scheduler.simulator import ScheduleResult, Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


class SortingScheduler(Scheduler):
    """The production scheduler with a per-event stable queue sort."""

    def run(
        self,
        jobs: list[Job],
        faults: FaultModel | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> ScheduleResult:
        """Simulate the schedule, re-sorting the whole queue by
        :func:`~repro.scheduler.policy.priority_key` at every event and
        rescanning the backfill candidates until a pass starts nothing."""
        if not jobs:
            raise ConfigurationError("no jobs to schedule")
        for job in jobs:
            if job.nodes > self.n_nodes:
                raise ConfigurationError(
                    f"{job.job_id} needs {job.nodes} nodes, machine has "
                    f"{self.n_nodes}"
                )

        rng = faults.rng() if faults is not None else None
        remaining = {job.job_id: job.duration for job in jobs}
        requeues = {job.job_id: 0 for job in jobs}
        abandoned: list[str] = []
        n_failures = 0
        lost_node_seconds = 0.0
        occupied_node_seconds = 0.0

        pending = sorted(jobs, key=lambda j: j.submit_time)
        n_pending = len(pending)
        next_pending = 0  # arrival cursor into ``pending``
        queue: list[Job] = []
        # heapq of (end_time, seq, job); fault mode resolves seq -> execution
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
                heapq.heappush(running, (now + job.duration, seq, job))
            else:
                left = remaining[job.job_id]
                assert rng is not None
                t_fail = float(
                    rng.exponential(faults.node_mtbf_seconds / job.nodes)
                )
                if t_fail < left:
                    executions[seq] = (t_fail, True)
                    heapq.heappush(running, (now + t_fail, seq, job))
                else:
                    executions[seq] = (left, False)
                    heapq.heappush(running, (now + left, seq, job))
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

        def planned_run(job: Job) -> float:
            """Run length the backfill window should assume for ``job``."""
            return job.duration if faults is None else remaining[job.job_id]

        policy = self.policy

        def by_priority(j: Job):
            return priority_key(policy, j, now)

        def try_start() -> None:
            nonlocal idle
            queue.sort(key=by_priority)
            started = True
            while started:
                started = False
                if not queue:
                    return
                head = queue[0]
                if head.nodes <= idle:
                    queue.pop(0)
                    launch(head)
                    started = True
                    continue
                # conservative backfill: when could the head start?
                needed = head.nodes - idle
                freed = 0
                head_start = now
                for end_time, _, job in sorted(running):
                    freed += job.nodes
                    head_start = end_time
                    if freed >= needed:
                        break
                i = 1
                while i < len(queue):
                    candidate = queue[i]
                    if (
                        candidate.nodes <= idle
                        and now + planned_run(candidate) <= head_start
                    ):
                        del queue[i]
                        launch(candidate)
                        started = True
                    else:
                        i += 1

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
            while (
                next_pending < n_pending
                and pending[next_pending].submit_time <= now
            ):
                job = pending[next_pending]
                next_pending += 1
                queue.append(job)
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
                _, done_seq, job = heapq.heappop(running)
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
                    queue.append(job)
                    if telemetry is not None:
                        telemetry.instant(
                            f"requeue:{job.job_id}", "scheduler",
                            facility="scheduler", track="queue", time=now,
                            attempt=requeues[job.job_id] + 1,
                        )
                        telemetry.metrics.counter("scheduler.requeues").inc()
                        enqueued(job, requeue=True)
            try_start()

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
