"""Task graphs executed on the discrete-event engine.

Plays the role Balsam and RAPTOR play in the paper's workflows: declare
tasks with durations, node requirements, facility placement and
dependencies; execute them with correct resource contention; read off the
makespan, per-facility utilisation and the critical path.

Tasks may additionally carry failure semantics (``failure_rate``,
``checkpoint_interval``/``checkpoint_write_time``): the executor then
retries failed attempts under a :class:`~repro.resilience.retry.RetryPolicy`
(releasing the nodes during backoff, as a real requeue does) and resumes
from the last committed checkpoint instead of restarting cold. With every
``failure_rate`` at zero the execution path — and every timestamp — is
identical to the fault-free executor.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.resilience.retry import RetryPolicy
from repro.sim.engine import Engine, Timeout
from repro.sim.resources import Resource
from repro.telemetry import DEFAULT_MAX_NODE_TRACKS, Telemetry
from repro.workflows.facility import Facility

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.report import ResilienceReport


@dataclass(frozen=True)
class Task:
    """One workflow task.

    ``duration`` is reference-machine seconds (rescaled by the facility's
    speed); ``nodes`` are acquired from the facility for the task's span.

    ``failure_rate`` is the expected number of failures per wall-clock
    second while the task runs (0 = never fails). ``checkpoint_interval``
    (wall-clock seconds on the placed facility, ``None`` = no checkpoints)
    commits progress every interval at a cost of ``checkpoint_write_time``
    seconds per write; a failed attempt then resumes from the last commit.
    Every number must be finite except ``checkpoint_interval``, whose
    ``math.inf`` never commits; NaN is rejected everywhere.
    """

    name: str
    duration: float
    facility: str
    nodes: int = 1
    deps: tuple[str, ...] = ()
    failure_rate: float = 0.0
    checkpoint_interval: float | None = None
    checkpoint_write_time: float = 0.0

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not 0.0 <= self.duration < math.inf:
            raise ConfigurationError(
                f"{self.name}: duration must be finite and >= 0"
            )
        if self.nodes < 1:
            raise ConfigurationError(f"{self.name}: need at least one node")
        if not 0.0 <= self.failure_rate < math.inf:
            raise ConfigurationError(
                f"{self.name}: failure rate must be finite and >= 0"
            )
        if self.checkpoint_interval is not None and not (
            self.checkpoint_interval > 0
        ):
            raise ConfigurationError(
                f"{self.name}: checkpoint interval must be positive"
            )
        if not 0.0 <= self.checkpoint_write_time < math.inf:
            raise ConfigurationError(
                f"{self.name}: checkpoint write time must be finite and >= 0"
            )


@dataclass
class WorkflowRun:
    """Results of executing a task graph.

    The resilience fields stay at their zero defaults when no task carries a
    ``failure_rate`` — an injection-free run is indistinguishable from the
    seed executor's output.
    """

    makespan: float
    start_times: dict[str, float]
    end_times: dict[str, float]
    attempts: dict[str, int] = field(default_factory=dict)
    n_failures: int = 0
    lost_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    # node-second accounting (node-weighted counterparts of the above):
    # busy = useful + lost + checkpoint, summed over every attempt
    busy_node_seconds: float = 0.0
    useful_node_seconds: float = 0.0
    lost_node_seconds: float = 0.0
    checkpoint_node_seconds: float = 0.0
    n_checkpoints: int = 0

    @property
    def n_retries(self) -> int:
        """Executions beyond each task's first attempt."""
        return sum(max(0, a - 1) for a in self.attempts.values())

    @property
    def goodput_fraction(self) -> float:
        """Useful node-seconds over occupied node-seconds (1.0 fault-free)."""
        if self.busy_node_seconds == 0:
            return 1.0
        return self.useful_node_seconds / self.busy_node_seconds

    @property
    def lost_node_hours(self) -> float:
        return self.lost_node_seconds / 3600.0

    def resilience_report(
        self,
        name: str = "workflow",
        node_mtbf_seconds: float | None = None,
    ) -> "ResilienceReport":
        """The workflow's failure accounting as a
        :class:`~repro.resilience.report.ResilienceReport`.

        The report is built in *node-seconds* (``n_nodes=1``): wall-clock is
        the occupied node-seconds across all attempts, so the report's
        ``goodput_fraction`` and ``lost_node_hours`` equal this run's
        properties of the same names exactly.
        """
        from repro.resilience.faults import DEFAULT_NODE_MTBF_SECONDS
        from repro.resilience.report import ResilienceReport

        return ResilienceReport(
            name=name,
            n_nodes=1,
            node_mtbf_seconds=(
                node_mtbf_seconds
                if node_mtbf_seconds is not None
                else DEFAULT_NODE_MTBF_SECONDS
            ),
            wall_seconds=self.busy_node_seconds,
            useful_seconds=self.useful_node_seconds,
            n_failures=self.n_failures,
            n_retries=self.n_retries,
            n_checkpoints=self.n_checkpoints,
            checkpoint_seconds=self.checkpoint_node_seconds,
            lost_seconds=self.lost_node_seconds,
        )

    def critical_path(self, graph: "TaskGraph") -> list[str]:
        """Chain of tasks ending at the latest finisher, following the
        dependency (or resource-wait) chain backwards greedily."""
        if not self.end_times:
            return []
        path = [max(self.end_times, key=self.end_times.get)]
        while True:
            task = graph.tasks[path[-1]]
            if not task.deps:
                break
            # predecessor that finished last gates this task
            gate = max(task.deps, key=lambda d: self.end_times[d])
            path.append(gate)
        return list(reversed(path))

    def facility_busy_node_seconds(self, graph: "TaskGraph") -> dict[str, float]:
        """Node-seconds consumed per facility."""
        out: dict[str, float] = {}
        for name, task in graph.tasks.items():
            span = self.end_times[name] - self.start_times[name]
            out[task.facility] = out.get(task.facility, 0.0) + span * task.nodes
        return out


def _attempt_timeline(
    left: float,
    interval: float | None,
    write_time: float,
    t_fail: float,
) -> tuple[float, float, int, bool]:
    """Timeline of one execution attempt, resolved analytically.

    ``left`` seconds of useful work remain; a failure strikes ``t_fail``
    wall-clock seconds into the attempt (infinity-like values mean never).
    Returns ``(wall, gained, writes, completed)``: the wall-clock the
    attempt held its nodes, the useful seconds newly committed, the number
    of completed checkpoint writes, and whether the task finished. Work
    since the last committed checkpoint — including a checkpoint write cut
    short by the failure — is lost.
    """
    if interval is None:
        # no checkpoints: all-or-nothing
        if t_fail >= left:
            return left, left, 0, True
        return t_fail, 0.0, 0, False
    wall = 0.0
    gained = 0.0
    writes = 0
    while gained < left:
        segment = min(interval, left - gained)
        if t_fail < wall + segment:  # failure mid-compute
            return t_fail, gained, writes, False
        wall += segment
        if gained + segment < left:  # commit requires a checkpoint write
            if t_fail < wall + write_time:  # failure mid-write: segment lost
                return t_fail, gained, writes, False
            wall += write_time
            writes += 1
        gained += segment
    return wall, gained, writes, True


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hasher(init: int, mult: int):
    """numpy's ``uint32`` hash whose multiplier advances on every call."""
    const = init

    def hash32(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash32


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_states(seed: int, indices: np.ndarray) -> np.ndarray:
    """PCG64 seed states of many tasks at once: row ``i`` equals
    ``SeedSequence([seed, indices[i]]).generate_state(4, np.uint64)``.

    numpy hashes the entropy words (the seed's little-endian 32-bit words,
    then the index's) into a pool of four ``uint32`` words, mixes the pool,
    folds in any words beyond it, then hashes the pool into the state. The
    hash multipliers advance by a fixed rule on every call, whatever the
    data, so the same ``uint32`` arithmetic runs on every index as one
    vector; the seed's words are shared by all rows. Each index must fit
    in one ``uint32`` word.
    """
    words = [
        np.array([seed >> shift & _MASK32], dtype=np.uint32)
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ]
    words.append(np.asarray(indices, dtype=np.uint32))
    # numpy hashes a zero into each pool word the entropy does not fill
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(words))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hash_state = _hasher(_INIT_B, _MULT_B)
    state = [hash_state(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]
    # numpy pairs the uint32 words little-endian into uint64 words
    pairs = np.stack(state, axis=1).astype("<u4")
    return pairs.view("<u8").astype(np.uint64)


class _SeedRow(ISeedSequence):
    """One row of :func:`_seed_states` as a seed sequence: ``PCG64`` asks
    it once for ``generate_state(4, np.uint64)`` and gets the row."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


class TaskGraph:
    """A DAG of :class:`Task` objects with validation and execution."""

    def __init__(self, facilities: dict[str, Facility]):
        if not facilities:
            raise ConfigurationError("need at least one facility")
        self.facilities = facilities
        self.tasks: dict[str, Task] = {}

    def add(self, task: Task) -> None:
        if task.name in self.tasks:
            raise ConfigurationError(f"duplicate task {task.name!r}")
        if task.facility not in self.facilities:
            raise ConfigurationError(
                f"{task.name}: unknown facility {task.facility!r}"
            )
        facility = self.facilities[task.facility]
        if task.nodes > facility.nodes:
            raise ConfigurationError(
                f"{task.name}: needs {task.nodes} nodes, {facility.name} has "
                f"{facility.nodes}"
            )
        for dep in task.deps:
            if dep not in self.tasks:
                raise ConfigurationError(
                    f"{task.name}: dependency {dep!r} not yet added "
                    "(add tasks in topological order)"
                )
        self.tasks[task.name] = task

    def add_task(
        self,
        name: str,
        duration: float,
        facility: str,
        nodes: int = 1,
        deps: tuple[str, ...] | list[str] = (),
        failure_rate: float = 0.0,
        checkpoint_interval: float | None = None,
        checkpoint_write_time: float = 0.0,
    ) -> Task:
        """Convenience builder."""
        task = Task(
            name=name, duration=duration, facility=facility,
            nodes=nodes, deps=tuple(deps),
            failure_rate=failure_rate,
            checkpoint_interval=checkpoint_interval,
            checkpoint_write_time=checkpoint_write_time,
        )
        self.add(task)
        return task

    def execute(
        self,
        retry: RetryPolicy | None = None,
        seed: int = 0,
        telemetry: Telemetry | None = None,
    ) -> WorkflowRun:
        """Run the DAG with resource contention; returns timing results.

        Tasks with a positive ``failure_rate`` are retried under ``retry``
        (defaults to :class:`RetryPolicy` when any task can fail), resuming
        from their last committed checkpoint. ``seed``, an int >= 0, drives
        the per-task failure and backoff-jitter draws: the task added
        ``i``-th draws from PCG64 seeded by ``SeedSequence([seed, i])``, so
        tasks added after it never change its draws, and the same seed
        reproduces the exact same failure times, retry counts and makespan.
        Every task's seed state is computed in one vectorised pass before
        the engine runs.

        With a ``telemetry`` handle the executor additionally records one
        span per task attempt (facility "workflow"), per-node occupancy
        spans on each placed facility's tracks (when the facility is small
        enough for per-node tracks — see
        :data:`~repro.telemetry.DEFAULT_MAX_NODE_TRACKS`), fault/restore
        instant events, ``facility="trace"`` start/end/failure/retry
        instants (``trace_event=True``; ``duration`` carries elapsed
        seconds), and the metrics the run summary reports. The
        telemetry-off path records nothing, and every returned number is
        unchanged.
        """
        if not self.tasks:
            raise ConfigurationError("empty task graph")
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigurationError(
                f"seed must be an integer >= 0, got {seed!r}"
            )
        if retry is None:
            retry = RetryPolicy()
        states = _seed_states(
            int(seed), np.arange(len(self.tasks), dtype=np.uint32)
        )
        engine = Engine(telemetry)
        pools = {
            key: Resource(engine, fac.nodes, name=fac.name)
            for key, fac in self.facilities.items()
        }
        run = WorkflowRun(makespan=0.0, start_times={}, end_times={})
        procs: dict[str, object] = {}
        # deterministic node-index assignment for per-node trace tracks
        free_nodes = {
            key: list(range(fac.nodes))
            for key, fac in self.facilities.items()
        }

        def trace(category: str, name: str, payload=None, duration=None):
            """A ``facility="trace"`` instant at the current time."""
            assert telemetry is not None
            telemetry.instant(
                name, category, facility="trace", track=category,
                time=engine.now, payload=payload, duration=duration,
                trace_event=True,
            )

        def open_attempt(task: Task, attempt: int):
            """Begin the attempt span and (on small facilities) node spans."""
            fac = self.facilities[task.facility]
            assert telemetry is not None
            attempt_span = telemetry.begin(
                task.name if attempt == 1 else f"{task.name}#{attempt}",
                "task", facility="workflow", track=task.name,
                attempt=attempt, nodes=task.nodes, placed=fac.name,
            )
            node_spans: list = []
            assigned: list[int] = []
            if fac.nodes <= DEFAULT_MAX_NODE_TRACKS:
                pool_free = free_nodes[task.facility]
                assigned = pool_free[: task.nodes]
                del pool_free[: task.nodes]
                node_spans = [
                    telemetry.begin(
                        task.name, "node", facility=fac.name,
                        track=f"node {i}", parent=attempt_span,
                        attempt=attempt,
                    )
                    for i in assigned
                ]
            return attempt_span, node_spans, assigned

        def close_attempt(
            task: Task, opened, wall: float, gained: float,
            ckpt: float, lost: float, completed: bool,
        ) -> None:
            assert telemetry is not None
            attempt_span, node_spans, assigned = opened
            telemetry.end(
                attempt_span, wall=wall, gained=gained, completed=completed
            )
            for node_span in node_spans:
                telemetry.end(node_span)
            pool_free = free_nodes[task.facility]
            pool_free.extend(assigned)
            pool_free.sort()
            m = telemetry.metrics
            m.histogram("dag.attempt_seconds").record(wall)
            m.counter("dag.busy_node_seconds").inc(wall * task.nodes)
            m.counter("dag.useful_node_seconds").inc(gained * task.nodes)
            m.counter("dag.checkpoint_node_seconds").inc(ckpt * task.nodes)
            m.counter("dag.lost_node_seconds").inc(lost * task.nodes)

        def account(task: Task, wall, gained, writes, completed) -> tuple:
            """Node-second accounting shared by run fields and metrics."""
            ckpt = writes * task.checkpoint_write_time
            lost = 0.0 if completed else wall - gained - ckpt
            run.busy_node_seconds += wall * task.nodes
            run.useful_node_seconds += gained * task.nodes
            run.checkpoint_node_seconds += ckpt * task.nodes
            run.lost_node_seconds += lost * task.nodes
            run.n_checkpoints += writes
            return ckpt, lost

        def task_proc(task: Task, index: int):
            for dep in task.deps:
                yield procs[dep]
            duration = self.facilities[task.facility].duration(task.duration)
            if task.failure_rate == 0.0:
                # fault-free fast path: byte-for-byte the seed executor
                yield pools[task.facility].acquire(task.nodes)
                run.start_times[task.name] = engine.now
                if telemetry is not None:
                    trace("start", task.name, {"nodes": task.nodes})
                    opened = open_attempt(task, 1)
                yield Timeout(duration)
                pools[task.facility].release(task.nodes)
                run.end_times[task.name] = engine.now
                if telemetry is not None:
                    trace("end", task.name, duration=duration)
                run.attempts[task.name] = 1
                ckpt, lost = account(task, duration, duration, 0, True)
                if telemetry is not None:
                    close_attempt(task, opened, duration, duration,
                                  ckpt, lost, True)
                    telemetry.metrics.histogram(
                        "dag.task_seconds"
                    ).record(duration)
                    telemetry.metrics.counter("dag.tasks_completed").inc()
                return
            # resilient path: retry loop with checkpoint-restart
            rng = np.random.Generator(np.random.PCG64(_SeedRow(states[index])))
            committed = 0.0
            attempts = 0
            while True:
                yield pools[task.facility].acquire(task.nodes)
                if attempts == 0:
                    run.start_times[task.name] = engine.now
                    if telemetry is not None:
                        trace("start", task.name, {"nodes": task.nodes})
                attempts += 1
                if telemetry is not None:
                    opened = open_attempt(task, attempts)
                    if attempts > 1 and committed > 0.0:
                        telemetry.instant(
                            f"restore:{task.name}", "checkpoint",
                            facility="workflow", track=task.name,
                            committed=committed, attempt=attempts,
                        )
                t_fail = float(rng.exponential(1.0 / task.failure_rate))
                wall, gained, writes, completed = _attempt_timeline(
                    duration - committed,
                    task.checkpoint_interval,
                    task.checkpoint_write_time,
                    t_fail,
                )
                yield Timeout(wall)
                pools[task.facility].release(task.nodes)
                committed += gained
                run.checkpoint_seconds += writes * task.checkpoint_write_time
                ckpt, lost = account(task, wall, gained, writes, completed)
                if telemetry is not None:
                    close_attempt(task, opened, wall, gained,
                                  ckpt, lost, completed)
                    telemetry.metrics.counter(
                        "dag.checkpoint_writes"
                    ).inc(writes)
                if completed:
                    run.end_times[task.name] = engine.now
                    run.attempts[task.name] = attempts
                    if telemetry is not None:
                        trace("end", task.name, duration=duration)
                        telemetry.metrics.histogram(
                            "dag.task_seconds"
                        ).record(
                            run.end_times[task.name]
                            - run.start_times[task.name]
                        )
                        telemetry.metrics.counter("dag.tasks_completed").inc()
                    return
                run.n_failures += 1
                run.lost_seconds += (
                    wall - gained - writes * task.checkpoint_write_time
                )
                if telemetry is not None:
                    trace("failure", task.name, {"attempt": attempts})
                    telemetry.instant(
                        f"failure:{task.name}", "fault",
                        facility="workflow", track=task.name,
                        attempt=attempts, lost_seconds=lost,
                    )
                    telemetry.metrics.counter("dag.failures").inc()
                if retry.exhausted(attempts):
                    raise SimulationError(
                        f"task {task.name!r} failed {attempts} times "
                        "(retry budget exhausted)"
                    )
                backoff = retry.delay(attempts, rng)
                if telemetry is not None:
                    trace("retry", task.name, duration=backoff)
                    telemetry.metrics.counter("dag.retries").inc()
                    backoff_span = telemetry.begin(
                        f"backoff:{task.name}", "backoff",
                        facility="workflow", track=task.name,
                        attempt=attempts,
                    )
                yield Timeout(backoff)
                if telemetry is not None:
                    telemetry.end(backoff_span)

        for index, (name, task) in enumerate(self.tasks.items()):
            procs[name] = engine.spawn(task_proc(task, index), name=name)
        engine.run()

        if len(run.end_times) != len(self.tasks):
            missing = set(self.tasks) - set(run.end_times)
            raise SimulationError(f"tasks never completed: {sorted(missing)}")
        run.makespan = max(run.end_times.values())
        if telemetry is not None:
            telemetry.metrics.gauge("dag.makespan_seconds").set(run.makespan)
            telemetry.metrics.gauge(
                "dag.goodput_fraction"
            ).set(run.goodput_fraction)
            telemetry.metrics.gauge(
                "dag.lost_node_hours"
            ).set(run.lost_node_hours)
        return run

    def serial_time(self) -> float:
        """Sum of all task durations on their placed facilities — the
        no-concurrency baseline a coordinated workflow is compared against."""
        return sum(
            self.facilities[t.facility].duration(t.duration)
            for t in self.tasks.values()
        )
