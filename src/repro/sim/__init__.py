"""A small deterministic discrete-event simulation engine.

Used by the workflow executor (:mod:`repro.workflows`) to model task timing
across facilities, and by the checkpoint-restart study
(:mod:`repro.resilience`). The engine is deliberately minimal: one
``heapq`` event queue popped one event at a time, generator-based
processes plus a generator-free :class:`Timer` fast path, and capacity
resources — enough to express job queues, staged pipelines and coupled
simulation loops without pulling in an external simulation framework.
"""

from repro.sim.engine import Engine, Interrupt, Process, Timeout, Timer
from repro.sim.resources import Resource

__all__ = [
    "Engine",
    "Interrupt",
    "Process",
    "Resource",
    "Timeout",
    "Timer",
]
