"""Per-lane :class:`~repro.sim.engine.Timer` reference for timer banks.

:class:`ObjectTimerBank` runs a :class:`~repro.sim.timerbank.TimerBank`
population the obvious way: one ``Timer`` process per lane, named
``<bank>[<lane>]``, the bank's survival rules applied per fire and each
re-arm delay drawn as one scalar from the rule's rng. It exposes the bank
surface the differential suite observes (``n_fired``, ``live_count``,
``done``, ``cancel``), so a bank and this reference must agree on every
event, final state and telemetry byte.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Engine, Timer, validate_delays
from repro.sim.timerbank import ExponentialRearm


class ObjectTimerBank:
    """A timer bank as per-lane :class:`Timer` processes."""

    def __init__(
        self,
        engine: Engine,
        delays: Any,
        on_fire: Callable[[int], Any] | None = None,
        rearm: ExponentialRearm | None = None,
        result: Any = None,
        name: str = "bank",
    ):
        self.on_fire = on_fire
        self.rearm = rearm
        self.n_fired = 0
        self._procs = [
            engine.spawn(
                Timer(delay, self._fire(lane), result), name=f"{name}[{lane}]"
            )
            for lane, delay in enumerate(validate_delays(delays).tolist())
        ]

    def _fire(self, lane: int) -> Callable[[], float | None]:
        on_fire, rearm = self.on_fire, self.rearm

        def draw() -> float:
            return float(rearm.rng.exponential(rearm.scale))

        def fire() -> float | None:
            self.n_fired += 1
            if on_fire is None:
                return None if rearm is None else draw()
            r = on_fire(lane)
            if rearm is not None:
                return None if r is False else draw()
            return r  # the next delay, or None: the Timer fire contract

        return fire

    @property
    def live_count(self) -> int:
        return sum(not p.finished for p in self._procs)

    @property
    def done(self) -> bool:
        return all(p.finished for p in self._procs)

    def cancel(self, cause: Any = None) -> int:
        return sum(1 for p in self._procs if p.interrupt(cause))
