"""A brute-force event queue, kept as the engine's test oracle.

:class:`ScanEngine` is the production :class:`~repro.sim.engine.Engine`
with its queue swapped out: pending entries sit in a plain list, and each
pop is a linear scan for the least ``(time, seq)`` key. It shares no
queue code with production (no ``heapq``), so any divergence between the
two is a bug in the production queue or its run loop. Spawning, timers,
interrupts, resources and telemetry are inherited.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.sim.engine import Engine, Process


class ScanEngine(Engine):
    """The production engine with a linear-scan event queue."""

    __slots__ = ()

    def _schedule(self, when: float, proc: Process, send_value: Any) -> None:
        seq = self._seq
        self._seq = seq + 1
        self._queue.append((when, seq, proc._epoch, proc, send_value))

    def run(self) -> None:
        """Pop the least ``(time, seq)``, skip it if stale, step it."""
        pending = self._queue
        try:
            while pending:
                i = min(range(len(pending)), key=lambda k: pending[k][:2])
                when, _, epoch, proc, send_value = pending.pop(i)
                if epoch != proc._epoch:  # cancelled by an interrupt
                    continue
                if when < self.now:
                    raise SimulationError("event scheduled in the past")
                self.now = when
                self._step(proc, send_value)
        finally:
            if self.telemetry is not None:
                self.telemetry.flush()
