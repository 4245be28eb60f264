"""Generator-based discrete-event engine.

A *process* is a Python generator that yields effects:

- ``Timeout(dt)`` — advance simulated time by ``dt`` seconds;
- ``Process`` — wait for a child process to finish (its return value is sent
  back into the parent);
- ``Resource.acquire()`` request objects — wait for capacity.

Processes that never block — pure timers, like the failure injector's
exponential clocks or Monte-Carlo ensemble timers — can skip the generator
machinery entirely: spawn a :class:`Timer` plan instead of a generator and
the engine detects it at spawn, firing a plain callback with no frame to
resume, no ``StopIteration`` to raise and no intermediate start event.

Homogeneous timer *populations* can go a step further still: a
:class:`~repro.sim.timerbank.TimerBank` holds every clock in numpy arrays
(deadlines, armed seqs, liveness) behind a *single* queue entry carrying
the next-due lane's ``(time, seq)`` key, so a million timers cost the
scheduler one entry instead of a million — see :mod:`repro.sim.timerbank`
for the dispatch and byte-identity contracts.

Determinism and tie-breaking
----------------------------
Event ordering is explicitly ``(time, seq)``-keyed: every scheduled event
carries the simulated time it is due and a monotonically increasing
sequence number drawn at scheduling time. Events fire in ascending
``(time, seq)`` order, so simultaneous events fire in exactly the order
they were scheduled (FIFO) — spawn order for fresh processes, wake order
for resumed ones. Because ``seq`` is unique, the comparison never reaches
the payload, and the order is a total order.

Event queue
-----------
Events live in a :class:`~repro.sim.calqueue.CalendarQueue` (bucketed
ring with an overflow heap) and are dispatched in *batches*: all events at
one simulated time are drained in a single pass instead of one pop per
event. A one-pop-per-event ``heapq`` loop over the same entries yields the
same order by construction; the differential suite and the committed
golden traces hold the engine to it.

Processes are *interruptible*: :meth:`Process.interrupt` throws an
:class:`Interrupt` into the generator at its current wait point, whether it
is sleeping in a ``Timeout``, waiting on a child process, or queued for a
resource. This is how node failures reach the work running on the failed
nodes (see :mod:`repro.resilience`): the victim catches the ``Interrupt``,
rolls back to its last checkpoint, and resumes. A process that does not
catch the ``Interrupt`` is killed (``proc.killed`` is set and waiters are
woken with ``None``). An interrupted :class:`Timer` has no frame to throw
into: it is cancelled cleanly — finished with result ``None``, ``killed``
left ``False`` — exactly like a generator that catches the ``Interrupt``
and returns.

Example
-------
>>> eng = Engine()
>>> def job(eng):
...     yield Timeout(2.0)
...     return "done"
>>> p = eng.spawn(job(eng))
>>> eng.run()
>>> p.result
'done'
>>> eng.now
2.0
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Generator
from itertools import repeat
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import SimulationError
from repro.sim.calqueue import CalendarQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


@dataclass(frozen=True, slots=True)
class Timeout:
    """Effect: advance the yielding process by ``delay`` simulated seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise SimulationError(f"negative timeout: {self.delay}")


class Timer:
    """A generator-free process plan: sleep ``delay``, fire, maybe re-arm.

    Spawning a ``Timer`` instead of a generator puts the process on the
    engine's fast path: the expiry is scheduled directly (no start event),
    and firing it is a plain call to ``fire`` — no generator frame, no
    ``send``, no ``StopIteration``. ``fire`` may return a non-negative
    float to re-arm the timer that many simulated seconds ahead, or
    ``None`` to finish the process with ``result``. A fire-less timer is a
    pure sleep: it finishes at expiry.

    Timers never block on resources or other processes, which is exactly
    what makes the fast path safe; anything that must wait stays a
    generator. Other processes may wait on a timer's :class:`Process`
    handle as usual.
    """

    __slots__ = ("delay", "fire", "result")

    def __init__(self, delay: float, fire: Any = None, result: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        self.delay = delay
        self.fire = fire
        self.result = result


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries arbitrary context (e.g. the failure event that killed
    the process's nodes). Catch it at the yield point to implement
    checkpoint-restart; let it propagate to have the engine kill the process.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Throw:
    """Internal send-value marker: deliver by ``gen.throw`` not ``gen.send``."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class _Fire:
    """Internal send-value marker: a :class:`Timer` expiry."""

    __slots__ = ()


_FIRE = _Fire()

#: Send-value marker for a timer-*bank* expiry (see
#: :mod:`repro.sim.timerbank`): a bank's single queue entry pops here and
#: the engine hands the whole due slice back to the bank for bulk
#: dispatch. A distinct instance so the :class:`Timer` inline-finish fast
#: path never confuses the two.
_BANK_FIRE = _Fire()


def validate_delays(delays: Any) -> np.ndarray:
    """Vectorized up-front delay validation shared by the bulk spawn paths.

    Returns ``delays`` as a 1-D ``float64`` array. Negative (or NaN)
    delays raise one :class:`ValueError` naming the first offending index,
    instead of failing lazily at fire time deep inside the event loop.
    """
    arr = np.asarray(delays, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(
            f"timer delays must be one-dimensional, got shape {arr.shape}"
        )
    bad = np.flatnonzero(~(arr >= 0.0))  # catches negatives and NaN alike
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"invalid timer delay {float(arr[i])!r} at index {i} "
            f"({bad.size} of {arr.size} delays negative or NaN)"
        )
    return arr


class Process:
    """A running simulated process wrapping a generator (or :class:`Timer`).

    ``__slots__`` keeps the per-process footprint flat: large simulations
    (scheduler ensembles, fault sweeps) allocate thousands of these on the
    hot path.
    """

    __slots__ = (
        "engine", "gen", "name", "finished", "killed", "result",
        "started_at", "finished_at", "_waiters", "_epoch", "_waiting_on",
        "_tel_span",
    )

    def __init__(self, engine: Engine, gen: Any, name: str = ""):
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.finished = False
        self.killed = False  # finished via an uncaught Interrupt
        self.result: Any = None
        self.started_at = engine.now
        self.finished_at: float | None = None
        # lazily allocated: most processes are never waited on, and the
        # timer fast path treats ``None`` as "no waiters"
        self._waiters: list[Process] | None = None
        self._epoch = 0  # bumped on interrupt; stale queue entries are skipped
        self._waiting_on: Any = None  # Process | resource request | None
        self._tel_span: Any = None  # open telemetry span, when instrumented

    def interrupt(self, cause: Any = None) -> bool:
        """Throw :class:`Interrupt` into this process at its current wait.

        Returns ``False`` (and does nothing) if the process already finished.
        """
        return self.engine._interrupt(self, cause)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} {state}>"


class Engine:
    """The event loop over ``(time, seq, epoch, process, value_to_send)``.

    Events are totally ordered by ``(time, seq)`` — see the module
    docstring for the tie-break contract and the calendar queue.

    ``telemetry`` is the opt-in observability handle
    (:class:`repro.telemetry.Telemetry`): when supplied, the engine binds
    its clock to simulated time and records one span per process lifetime
    plus an instant event per interrupt. When ``None`` (the default) no
    telemetry code runs — the hot path is the uninstrumented seed path.
    """

    __slots__ = (
        "now", "telemetry", "_queue", "_seq", "_active", "_current",
        "_batch", "_batch_time",
    )

    def __init__(self, telemetry: "Telemetry | None" = None):
        self.now = 0.0
        self.telemetry = telemetry
        self._queue = CalendarQueue()
        self._seq = 0  # next sequence number; drawn in blocks by bulk spawn
        self._active = 0
        self._current: Process | None = None  # process being stepped
        self._batch: list[tuple] | None = None  # same-time batch being drained
        self._batch_time = 0.0
        if telemetry is not None:
            telemetry.bind_clock(lambda: self.now)

    def spawn(self, gen: Generator | Timer, name: str = "") -> Process:
        """Register a new process and schedule its first step.

        A generator is scheduled for its first ``send`` at ``now``; a
        :class:`Timer` plan is detected here and its expiry scheduled
        directly at ``now + delay`` — the generator-free fast path.
        """
        proc = Process(self, gen, name)
        self._active += 1
        if type(gen) is Timer:
            self._schedule(self.now + gen.delay, proc, _FIRE)
        else:
            self._schedule(self.now, proc, None)
        if self.telemetry is not None:
            proc._tel_span = self.telemetry.begin(
                proc.name, "process", facility="engine", track=proc.name
            )
        return proc

    def spawn_timers(
        self,
        delays,
        fire: Any = None,
        result: Any = None,
        name: str = "",
    ) -> list[Process]:
        """Spawn one :class:`Timer` process per delay, sharing one plan.

        Semantically identical to ``[self.spawn(Timer(d, fire, result),
        name) for d in delays]`` — same ``(time, seq)`` schedule, same
        per-process results — but the per-spawn overhead is amortised:
        a single shared ``Timer`` plan (the delay lives in the schedule
        entry, not the plan) and an inlined scheduling loop. This is the
        bulk entry point for Monte-Carlo timer storms; for a population
        that needs no per-timer handle, a
        :class:`~repro.sim.timerbank.TimerBank` is cheaper still. Delays
        are validated up front (one numpy check; :class:`ValueError` names
        the first offending index).
        """
        # plain floats: entry times feed telemetry/json
        delays = validate_delays(delays).tolist()
        timer = Timer(0.0, fire, result)
        if not name:
            name = "process"  # what Process derives for a plain Timer
        now = self.now
        procs = [Process(self, timer, name) for _ in delays]
        self._active += len(procs)
        seq0 = self._seq
        self._seq = seq0 + len(procs)  # draw the whole seq block at once
        # zip builds the entry tuples in C — measurably cheaper than a
        # tuple-display comprehension at Monte-Carlo sizes
        entries = list(zip(
            [now + delay for delay in delays],
            range(seq0, seq0 + len(procs)),
            repeat(0),
            procs,
            repeat(_FIRE),
        ))
        if self._batch is not None:
            # mid-batch spawn: same-time entries join the live batch (their
            # seq is larger, so appending preserves the (time, seq) order)
            batch_time = self._batch_time
            batch = self._batch
            queue = self._queue
            for entry in entries:
                if entry[0] == batch_time:
                    batch.append(entry)
                else:
                    queue.push(entry)
        else:
            self._queue.push_many(entries)
        telemetry = self.telemetry
        if telemetry is not None:
            for proc in procs:
                proc._tel_span = telemetry.begin(
                    proc.name, "process", facility="engine", track=proc.name
                )
        return procs

    def _schedule(self, when: float, proc: Process, send_value: Any) -> None:
        seq = self._seq
        self._seq = seq + 1
        entry = (when, seq, proc._epoch, proc, send_value)
        if self._batch is not None and when == self._batch_time:
            # same-time event scheduled mid-batch: its seq is larger than
            # every pending entry's, so appending preserves (time, seq) order
            self._batch.append(entry)
        else:
            self._queue.push(entry)

    def _push_entry(self, entry: tuple) -> None:
        """Insert a pre-built entry whose seq was drawn from this engine.

        Timer banks build their own entries (the seq is the due lane's,
        drawn in blocks at arm time), so unlike ``_schedule`` a mid-batch
        push can carry a seq *older* than pending batch entries: a bank
        re-registering at the batch time keys the entry by its next due
        lane's arm-time seq. That seq is still newer than the entry being
        stepped right now (the bank fired everything at or below it), so
        an ordered insert lands in the unprocessed tail of the batch and
        the drain loop picks it up in global ``(time, seq)`` order.
        """
        if self._batch is not None and entry[0] == self._batch_time:
            batch = self._batch
            if not batch or entry[1] > batch[-1][1]:
                batch.append(entry)  # fresh seq: the common fast path
            else:
                insort(batch, entry)  # seq-sorted; never compares payloads
        else:
            self._queue.push(entry)

    def run(self, until: float | None = None) -> None:
        """Run until no events remain, or simulated time would pass ``until``.

        Leaving the loop — even on an exception — flushes any telemetry
        sink: a run boundary is a quiescent point, so spilled shards reach
        disk without waiting for the handle to be closed.
        """
        try:
            self._drain(until)
        finally:
            if self.telemetry is not None:
                self.telemetry.flush()

    def _drain(self, until: float | None) -> None:
        """Batched dispatch: drain all events at one time in a single pass.

        Events scheduled *during* a multi-event batch at exactly the batch
        time are appended to it (their seq is necessarily larger), so the
        pass stays a faithful ``(time, seq)`` drain. On an exception the
        unprocessed tail is pushed back, as if events had been consumed
        one at a time.

        Two hot-path shortcuts, neither observable in the event order:

        - single-event batches skip the batch bookkeeping entirely (a
          same-time event such a step schedules goes through the queue and
          is popped as the next batch — same total order);
        - a fire-less, waiter-less :class:`Timer` expiry on an
          uninstrumented engine is finished inline, with no call chain.
        """
        queue = self._queue
        step = self._step
        tel_off = self.telemetry is None
        pop_batch = queue.pop_time_batch
        while True:
            if until is not None:
                when = queue.peek_time()
                if when is None:
                    break
                if when > until:
                    self.now = until
                    return
            batch = pop_batch()
            if batch is None:
                break
            if len(batch) == 1:
                when, _, epoch, proc, send_value = batch[0]
                if epoch != proc._epoch:  # cancelled by an interrupt
                    continue
                if when < self.now:
                    raise SimulationError("event scheduled in the past")
                self.now = when
                if send_value is _FIRE:
                    timer = proc.gen
                    if timer.fire is None and tel_off and not proc._waiters:
                        proc.finished = True
                        proc.result = timer.result
                        proc.finished_at = when
                        self._active -= 1
                        continue
                step(proc, send_value)
                continue
            for entry in batch:
                if entry[2] == entry[3]._epoch:
                    break
            else:
                # every entry was cancelled by an interrupt: discard the
                # batch without advancing the clock (a stale entry never
                # moves ``now``)
                continue
            when = batch[0][0]
            if when < self.now:
                raise SimulationError("event scheduled in the past")
            self.now = when
            self._batch = batch
            self._batch_time = when
            i = 0
            n = len(batch)
            n_finished = 0  # inline timer finishes, applied to _active once
            try:
                while i < n:
                    _, _, epoch, proc, send_value = batch[i]
                    i += 1
                    if epoch != proc._epoch:  # cancelled by an interrupt
                        continue
                    if send_value is _FIRE:
                        timer = proc.gen
                        if (
                            timer.fire is None
                            and tel_off
                            and not proc._waiters
                        ):
                            proc.finished = True
                            proc.result = timer.result
                            proc.finished_at = when
                            n_finished += 1
                            continue
                    step(proc, send_value)
                    n = len(batch)
            finally:
                self._batch = None
                self._active -= n_finished
                if i < len(batch):  # exception mid-batch: keep the tail
                    for entry in batch[i:]:
                        queue.push(entry)
        if until is not None:
            self.now = max(self.now, until)

    def _step(self, proc: Process, send_value: Any) -> None:
        if proc.finished:
            raise SimulationError(f"stepping finished process {proc.name}")
        gen = proc.gen
        if type(gen) is Timer:
            self._fire_timer(proc, gen, send_value)
            return
        if send_value is _BANK_FIRE:
            # a timer bank's entry popped: hand the due slice back to the
            # bank for bulk dispatch (see repro.sim.timerbank)
            gen._bank_fire(self)
            return
        proc._waiting_on = None
        self._current = proc
        try:
            if isinstance(send_value, _Throw):
                effect = gen.throw(send_value.exc)
            else:
                effect = gen.send(send_value)
        except StopIteration as stop:
            self._finish(proc, stop.value)
            return
        except Interrupt:
            # the process chose not to handle the interrupt: kill it
            proc.killed = True
            self._finish(proc, None)
            return
        finally:
            self._current = None
        self._dispatch(proc, effect)

    def _fire_timer(self, proc: Process, timer: Timer, send_value: Any) -> None:
        """Advance a :class:`Timer` process: no generator frame involved."""
        if send_value is _FIRE:
            fire = timer.fire
            if fire is not None:
                self._current = proc
                try:
                    next_delay = fire()
                finally:
                    self._current = None
                if next_delay is not None:
                    if next_delay < 0:
                        raise SimulationError(
                            f"timer {proc.name} re-armed with negative "
                            f"delay {next_delay}"
                        )
                    self._schedule(self.now + next_delay, proc, _FIRE)
                    return
            self._finish(proc, timer.result)
        elif isinstance(send_value, _Throw):
            # no frame to throw into: cancel cleanly (not a kill) — the
            # pending expiry was already invalidated by the epoch bump
            self._finish(proc, None)
        else:  # pragma: no cover - timers are only ever sent _FIRE/_Throw
            raise SimulationError(
                f"timer {proc.name} received unexpected value {send_value!r}"
            )

    def _dispatch(self, proc: Process, effect: Any) -> None:
        if isinstance(effect, Timeout):
            self._schedule(self.now + effect.delay, proc, None)
        elif isinstance(effect, Process):
            if effect.finished:
                self._schedule(self.now, proc, effect.result)
            else:
                proc._waiting_on = effect
                if effect._waiters is None:
                    effect._waiters = [proc]
                else:
                    effect._waiters.append(proc)
        elif hasattr(effect, "_bind_waiter"):  # resource requests
            proc._waiting_on = effect
            effect._bind_waiter(proc)
        else:
            raise SimulationError(f"process {proc.name} yielded {effect!r}")

    def _finish(self, proc: Process, result: Any) -> None:
        proc.finished = True
        proc.result = result
        proc.finished_at = self.now
        self._active -= 1
        if self.telemetry is not None and proc._tel_span is not None:
            self.telemetry.end(proc._tel_span, killed=proc.killed)
            proc._tel_span = None
        waiters = proc._waiters
        if waiters:
            for waiter in waiters:
                waiter._waiting_on = None
                self._schedule(self.now, waiter, result)
            proc._waiters = None

    def _interrupt(self, proc: Process, cause: Any) -> bool:
        if proc.finished:
            return False
        # detach from whatever the process is waiting on
        waiting_on = proc._waiting_on
        if isinstance(waiting_on, Process):
            peers = waiting_on._waiters
            if peers and proc in peers:
                peers.remove(proc)
        elif waiting_on is not None and hasattr(waiting_on, "_cancel"):
            waiting_on._cancel(proc)
        proc._waiting_on = None
        proc._epoch += 1  # invalidate any pending queue entry for this process
        self._schedule(self.now, proc, _Throw(Interrupt(cause)))
        if self.telemetry is not None:
            self.telemetry.instant(
                f"interrupt:{proc.name}", "engine",
                facility="engine", track=proc.name, cause=cause,
            )
        return True

    # Resources use this to resume a blocked process.
    def _resume(self, proc: Process, value: Any) -> None:
        self._schedule(self.now, proc, value)
