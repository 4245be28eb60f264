"""Facility-wide fault injection and checkpoint-restart resilience.

Section VI's practical message is that full-machine time-to-solution is
governed by failures, not peak throughput: job-wide MTBF shrinks linearly
with node count, and the burst buffer exists largely to make
checkpoint-restart cheap. This package threads that failure semantics
through every simulation layer:

- :mod:`repro.resilience.faults` — per-node exponential failure models and
  the engine-level :class:`FailureInjector` that interrupts victim
  processes;
- :mod:`repro.resilience.retry` — bounded retries with exponential backoff
  and jitter, shared by the DAG executor and the batch scheduler;
- :mod:`repro.resilience.restart` — event-driven checkpoint-restart
  simulation of a single long job;
- :mod:`repro.resilience.report` — the goodput / lost-work / overhead
  accounting (:class:`ResilienceReport`).
"""

from repro.resilience.faults import (
    DEFAULT_NODE_MTBF_SECONDS,
    FailureEvent,
    FailureInjector,
    NodeFailureModel,
)
from repro.resilience.report import ResilienceReport
from repro.resilience.restart import RestartStats, simulate_checkpoint_restart
from repro.resilience.retry import RetryPolicy

__all__ = [
    "DEFAULT_NODE_MTBF_SECONDS",
    "FailureEvent",
    "FailureInjector",
    "NodeFailureModel",
    "ResilienceReport",
    "RestartStats",
    "RetryPolicy",
    "simulate_checkpoint_restart",
]
