"""Batch-scheduler and allocation-program simulation.

Section II-B describes how Summit's cycles are split across INCITE / ALCC /
DD and how the facility "seeks to enable scientific productivity via
capability computing". This package models that machinery:

- :mod:`repro.scheduler.jobs` — job records and synthetic campaign
  generation from a project portfolio;
- :mod:`repro.scheduler.policy` — queue policies (FIFO, capability-priority
  backfill as on Summit);
- :mod:`repro.scheduler.simulator` — runs a job stream against the machine
  in its own event loop, reporting utilisation, wait times, and the
  AI/ML share of *delivered* node-hours (the paper's alternative usage
  metric, Section II-C).
"""

from repro.scheduler.faults import FaultModel
from repro.scheduler.jobs import Job, campaign_from_portfolio
from repro.scheduler.policy import Policy
from repro.scheduler.simulator import ScheduleResult, Scheduler

__all__ = [
    "FaultModel",
    "Job",
    "Policy",
    "ScheduleResult",
    "Scheduler",
    "campaign_from_portfolio",
]
