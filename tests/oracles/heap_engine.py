"""The one-pop-per-event ``heapq`` engine, kept as a test oracle.

:class:`HeapEngine` is the production :class:`~repro.sim.engine.Engine`
with two things swapped out: the calendar queue behind the engine's push
points becomes a binary heap, and the batched drain becomes the plain
loop — pop one entry, skip it if an interrupt made it stale, step it.
Spawning, timers, timer banks (they push through the same
``_push_entry``), interrupts, resources and telemetry are all inherited,
so any divergence between the two engines is a bug in the calendar queue
or the batched dispatch.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.errors import SimulationError
from repro.sim.engine import Engine, Process


class _Heap(list):
    """A ``heapq`` list answering the queue calls the engine makes."""

    def push(self, entry: tuple) -> None:
        heapq.heappush(self, entry)

    def push_many(self, entries: list[tuple]) -> None:
        for entry in entries:
            heapq.heappush(self, entry)


class HeapEngine(Engine):
    """The production engine drained one heap pop per event."""

    __slots__ = ()

    def __init__(self, telemetry=None):
        super().__init__(telemetry)
        self._queue = _Heap()

    def _schedule(self, when: float, proc: Process, send_value: Any) -> None:
        # no batch ever exists here, so every event goes straight to the
        # heap — the per-event cost of the historical heap loop
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, proc._epoch, proc, send_value))

    def run(self, until: float | None = None) -> None:
        """Pop, skip stale, step — until empty or past ``until``.

        An entry beyond ``until`` is pushed back once instead of peeking
        the heap top on every iteration.
        """
        heap = self._queue
        try:
            while heap:
                entry = heapq.heappop(heap)
                when, _, epoch, proc, send_value = entry
                if epoch != proc._epoch:  # cancelled by an interrupt
                    continue
                if until is not None and when > until:
                    heapq.heappush(heap, entry)
                    self.now = until
                    return
                if when < self.now:
                    raise SimulationError("event scheduled in the past")
                self.now = when
                self._step(proc, send_value)
            if until is not None:
                self.now = max(self.now, until)
        finally:
            if self.telemetry is not None:
                self.telemetry.flush()
