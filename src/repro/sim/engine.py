"""Generator-based discrete-event engine.

A *process* is a Python generator that yields effects:

- ``Timeout(dt)`` — advance simulated time by ``dt`` seconds;
- ``Process`` — wait for a child process to finish (its return value is sent
  back into the parent);
- ``Resource.acquire()`` request objects — wait for capacity.

Processes that never block — pure timers, like the failure injector's
exponential clocks — can skip the generator machinery entirely: spawn a
:class:`Timer` plan instead of a generator and the engine detects it at
spawn, firing a plain callback with no frame to resume, no
``StopIteration`` to raise and no intermediate start event.

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
Events live in one binary heap (:mod:`heapq`) of ``(time, seq, epoch,
process, value)`` entries. :meth:`Engine.run` pops one entry per event,
skips it if an interrupt has made it stale (its epoch is behind the
process's), and steps the process. Because ``(time, seq)`` is unique, the
heap order is the contract's total order.

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

from collections.abc import Generator
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


@dataclass(frozen=True, slots=True)
class Timeout:
    """Effect: advance the yielding process by ``delay`` simulated seconds."""

    delay: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delay < inf:  # also rejects NaN
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {self.delay!r}"
            )


class Timer:
    """A generator-free process plan: sleep ``delay``, fire, maybe re-arm.

    Spawning a ``Timer`` instead of a generator puts the process on the
    engine's fast path: the expiry is scheduled directly (no start event),
    and firing it is a plain call to ``fire`` — no generator frame, no
    ``send``, no ``StopIteration``. ``fire`` may return a non-negative
    finite float to re-arm the timer that many simulated seconds ahead, or
    ``None`` to finish the process with ``result``. A fire-less timer is a
    pure sleep: it finishes at expiry.

    Timers never block on resources or other processes, which is exactly
    what makes the fast path safe; anything that must wait stays a
    generator. Other processes may wait on a timer's :class:`Process`
    handle as usual.
    """

    __slots__ = ("delay", "fire", "result")

    def __init__(self, delay: float, fire: Any = None, result: Any = None):
        if not 0.0 <= delay < inf:  # also rejects NaN
            raise SimulationError(
                f"timer delay must be finite and >= 0, got {delay!r}"
            )
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
        # lazily allocated: most processes are never waited on
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
    docstring for the tie-break contract and the event queue.

    ``telemetry`` is the opt-in observability handle
    (:class:`repro.telemetry.Telemetry`): when supplied, the engine binds
    its clock to simulated time and records one span per process lifetime
    plus an instant event per interrupt. When ``None`` (the default) no
    telemetry code runs — the hot path is the uninstrumented seed path.
    """

    __slots__ = ("now", "telemetry", "_queue", "_seq")

    def __init__(self, telemetry: "Telemetry | None" = None):
        self.now = 0.0
        self.telemetry = telemetry
        self._queue: list[tuple] = []  # a heapq of pending entries
        self._seq = 0  # next sequence number
        if telemetry is not None:
            telemetry.bind_clock(lambda: self.now)

    def spawn(self, gen: Generator | Timer, name: str = "") -> Process:
        """Register a new process and schedule its first step.

        A generator is scheduled for its first ``send`` at ``now``; a
        :class:`Timer` plan is detected here and its expiry scheduled
        directly at ``now + delay`` — the generator-free fast path.
        """
        proc = Process(self, gen, name)
        if type(gen) is Timer:
            self._schedule(self.now + gen.delay, proc, _FIRE)
        else:
            self._schedule(self.now, proc, None)
        if self.telemetry is not None:
            proc._tel_span = self.telemetry.begin(
                proc.name, "process", facility="engine", track=proc.name
            )
        return proc

    def _schedule(self, when: float, proc: Process, send_value: Any) -> None:
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (when, seq, proc._epoch, proc, send_value))

    def run(self) -> None:
        """Pop, skip stale, step — until no events remain.

        Leaving the loop — even on an exception — flushes any telemetry
        sink: a run boundary is a quiescent point, so spilled shards reach
        disk without waiting for the handle to be closed.
        """
        queue = self._queue
        step = self._step
        try:
            while queue:
                when, _, epoch, proc, send_value = heappop(queue)
                if epoch != proc._epoch:  # cancelled by an interrupt
                    continue
                if when < self.now:
                    raise SimulationError("event scheduled in the past")
                self.now = when
                step(proc, send_value)
        finally:
            if self.telemetry is not None:
                self.telemetry.flush()

    def _step(self, proc: Process, send_value: Any) -> None:
        if proc.finished:
            raise SimulationError(f"stepping finished process {proc.name}")
        gen = proc.gen
        if type(gen) is Timer:
            self._fire_timer(proc, gen, send_value)
            return
        proc._waiting_on = None
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
        self._dispatch(proc, effect)

    def _fire_timer(self, proc: Process, timer: Timer, send_value: Any) -> None:
        """Advance a :class:`Timer` process: no generator frame involved."""
        if send_value is _FIRE:
            fire = timer.fire
            if fire is not None:
                next_delay = fire()
                if next_delay is not None:
                    if not 0.0 <= next_delay < inf:  # also rejects NaN
                        raise SimulationError(
                            f"timer {proc.name} re-armed with delay "
                            f"{next_delay!r}; need finite and >= 0"
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
