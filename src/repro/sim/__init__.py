"""A small deterministic discrete-event simulation engine.

Used by the workflow executor (:mod:`repro.workflows`) to model task timing
across facilities, and by the scheduler studies. The engine is deliberately
minimal: a calendar-queue event scheduler with batched same-instant
dispatch, generator-based processes plus a generator-free :class:`Timer`
fast path, numpy :class:`TimerBank` populations, and capacity resources —
enough to express job queues, staged pipelines and coupled simulation
loops without pulling in an external simulation framework.
"""

from repro.sim.calqueue import CalendarQueue
from repro.sim.engine import Engine, Interrupt, Process, Timeout, Timer
from repro.sim.resources import Resource
from repro.sim.timerbank import ExponentialRearm, TimerBank

__all__ = [
    "CalendarQueue",
    "Engine",
    "ExponentialRearm",
    "Interrupt",
    "Process",
    "Resource",
    "TimerBank",
    "Timeout",
    "Timer",
]
