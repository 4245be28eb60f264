"""Retry policy: bounded attempts with exponential backoff and jitter.

The policy the workflow executor and the batch scheduler share when a task
or job dies under it. Backoff delays model the requeue-and-relaunch latency
of a real facility (scheduler cycle, node drain, prolog); jitter decorrelates
the retries of tasks killed by the same event so they do not stampede the
queue in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """How a failed task is retried.

    ``max_attempts`` counts total executions (first try included); delays
    grow as ``backoff_base * backoff_factor**(attempt-1)`` capped at
    ``backoff_max``, then scaled by a uniform ``1 ± jitter_fraction`` draw
    when an RNG is supplied. ``deadline_s`` optionally bounds the *total*
    wall-clock budget across all retries — a policy can give up because too
    much time has passed even when attempts remain (and vice versa).
    """

    max_attempts: int = 4
    backoff_base: float = 30.0
    backoff_factor: float = 2.0
    backoff_max: float = 3600.0
    jitter_fraction: float = 0.1
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if not self.backoff_base >= 0:
            raise ConfigurationError("backoff_base must be >= 0")
        if not self.backoff_max >= 0:
            raise ConfigurationError("backoff_max must be >= 0")
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ConfigurationError("backoff_factor must be finite and >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError("jitter_fraction must be in [0, 1)")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError("deadline_s must be positive")

    def delay(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ConfigurationError("attempt must be >= 1")
        try:
            base = min(
                self.backoff_base * self.backoff_factor ** (attempt - 1),
                self.backoff_max,
            )
        except OverflowError:
            # growth past the float range: any positive base is capped,
            # and a zero base stays zero (0 * inf would be NaN)
            base = self.backoff_max if self.backoff_base > 0 else 0.0
        if rng is not None and self.jitter_fraction > 0:
            base *= 1.0 + self.jitter_fraction * float(rng.uniform(-1.0, 1.0))
        return base

    def delays(
        self, rng: np.random.Generator | None = None
    ) -> Iterator[float]:
        """Yield the backoff before each retry, in order (at most
        ``max_attempts - 1`` values).

        With a ``deadline_s``, the iterator additionally stops before the
        delay that would push the *cumulative* sleep past the budget — the
        caller sleeping through every yielded value never exceeds the
        wall-clock bound.

        >>> list(RetryPolicy(max_attempts=3, backoff_base=1.0,
        ...                  jitter_fraction=0.0).delays())
        [1.0, 2.0]
        """
        slept = 0.0
        for attempt in range(1, self.max_attempts):
            delay = self.delay(attempt, rng)
            if self.deadline_s is not None and slept + delay > self.deadline_s:
                return
            slept += delay
            yield delay

    def exhausted(self, attempts_made: int, elapsed_s: float = 0.0) -> bool:
        """True once ``attempts_made`` executions have all failed, or the
        total wall-clock budget (``deadline_s``) has been spent."""
        if self.deadline_s is not None and elapsed_s >= self.deadline_s:
            return True
        return attempts_made >= self.max_attempts
