"""Vectorized timer banks: numpy-backed bulk timers behind one queue entry.

PR 9's calendar queue made the event *scheduler* cheap, but every timer
still paid for a Python :class:`~repro.sim.engine.Timer` object, one queue
entry per clock, and one dispatch per expiry. A :class:`TimerBank` removes
all three for homogeneous populations — per-node MTBF clocks, Monte-Carlo
expiry storms, walltime fences — by holding the whole population in numpy
arrays:

- ``deadlines: float64[n]`` — absolute expiry time per lane;
- ``seqs: int64[n]`` — the engine sequence number drawn (in one block)
  when the lane was armed;
- ``alive: bool[n]`` — lane liveness.

The engine sees a *single* queue entry per horizon window, keyed by the
next-due lane's ``(time, seq)``. When it pops, the bank sorts/slices the
due lanes, dispatches their fires in ``(deadline, seq)`` order, bulk
re-arms survivors with one block rng draw, and re-registers itself at
the new minimum. Ordinary events interleave correctly through the engine's
documented ``(time, seq)`` total order because the entry always carries a
real lane key.

Byte-identity contract
----------------------
A bank is observably identical to the same population spawned as
per-lane :class:`~repro.sim.engine.Timer` processes — same event order,
same final state, byte-identical telemetry traces. Three facts carry the
contract:

1. **Block draws equal scalar draws.** For numpy's ``Generator``,
   ``rng.exponential(scale, k)`` consumes the bitstream exactly as ``k``
   successive scalar draws do, so bulk re-arming survivors in one call
   reproduces the per-clock draw order of per-lane timers (provided fire
   callbacks do not themselves consume the bank's rng — documented
   requirement).
2. **Only seq-contiguous runs dispatch together.** Lanes armed together
   hold consecutive sequence numbers, so no foreign event can own a seq
   inside one arm block — a whole block expiring at one instant (the
   common case) is a single numpy dispatch. When separately-armed
   lanes *do* collide at one instant (exact float collisions happen under
   deterministic re-arm delays), the bank fires only the maximal
   seq-contiguous run and re-registers at the post-gap lane's
   ``(time, seq)``, letting the engine's total order interleave any
   foreign event that owns a seq in the gap.
3. **Telemetry mirrors per-lane timers.** With telemetry attached the
   bank opens one span per lane at construction (same names, same order
   as a per-lane spawn loop), ends dying lanes' spans per fire in dispatch
   order, and emits the same per-lane ``interrupt:`` instants on cancel.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import (
    _BANK_FIRE,
    Engine,
    Interrupt,
    Process,
    _Throw,
    validate_delays,
)

__all__ = ["ExponentialRearm", "TimerBank"]

#: Re-armed lanes accumulate in an unsorted fresh list until a dispatch
#: finds more than this many, then one numpy lexsort rebuilds the
#: sorted snapshot. Small enough that the per-dispatch fresh scan stays
#: O(few dozen), large enough to amortise rebuilds over many re-arms.
_RESORT_AT = 64


class ExponentialRearm:
    """Vectorized re-arm rule: exponential inter-fire times from one rng.

    ``draw(k)`` consumes ``rng``'s bitstream exactly as ``k`` scalar
    ``rng.exponential(scale)`` calls would — numpy ``Generator``
    distributions fill arrays element-by-element from the same stream —
    which is the bridge that keeps a bank byte-identical to per-lane
    timers.
    """

    __slots__ = ("scale", "rng")

    def __init__(self, scale: float, rng: np.random.Generator):
        if scale <= 0:
            raise ValueError(f"re-arm scale must be positive, got {scale}")
        self.scale = scale
        self.rng = rng

    def draw(self, k: int) -> np.ndarray:
        return self.rng.exponential(self.scale, k)


class TimerBank:
    """A homogeneous timer population behind a single engine queue entry.

    ``on_fire(lane)`` (optional) runs once per expiring lane, in
    ``(deadline, seq)`` order. Survival semantics:

    - with a ``rearm`` rule: the lane re-arms (delay drawn from the rule,
      in one block per fire instant) unless ``on_fire`` returned exactly
      ``False`` — or unconditionally when there is no callback;
    - without a rule: ``on_fire``'s return is the next delay (a
      non-negative float) or ``None`` to let the lane die — the
      :class:`~repro.sim.engine.Timer` fire contract, per lane;
    - neither callback nor rule: a pure sleep, every lane dies at expiry.

    Fire callbacks may interrupt/spawn other processes freely but must not
    consume the bank's re-arm rng — that is the one draw-order requirement
    behind the byte-identity contract (module docstring).

    ``cancel()`` retires every live lane cleanly (an interrupted
    :class:`~repro.sim.engine.Timer`'s semantics: finished, not killed).
    """

    __slots__ = (
        "engine", "name", "on_fire", "rearm", "result", "n_lanes",
        "n_fired", "_live", "_deadlines", "_seqs", "_alive", "_s_times",
        "_s_seqs", "_s_lanes", "_cursor", "_fresh", "_in_fresh", "_proc",
        "_spans", "_done",
    )

    def __init__(
        self,
        engine: Engine,
        delays: Any,
        on_fire: Callable[[int], Any] | None = None,
        rearm: ExponentialRearm | None = None,
        result: Any = None,
        name: str = "bank",
    ):
        arr = validate_delays(delays)
        self.engine = engine
        self.name = name
        self.on_fire = on_fire
        self.rearm = rearm
        self.result = result
        self.n_lanes = int(arr.size)
        self.n_fired = 0
        self._done = self.n_lanes == 0
        if self._done:
            self._proc = None
            self._spans = None
            self._live = 0
            return
        n = self.n_lanes
        self._live = n
        self._deadlines = engine.now + arr
        seq0 = engine._seq
        engine._seq = seq0 + n  # one block: contiguous seqs per arm block
        self._seqs = np.arange(seq0, seq0 + n, dtype=np.int64)
        self._alive = np.ones(n, dtype=bool)
        if n > 1 and arr[0] == arr.min() == arr.max():
            # homogeneous population: already (deadline, seq)-sorted, skip
            # the O(n log n) argsort — the million-timer drain fast path
            order = np.arange(n, dtype=np.int64)
        else:
            # initial seqs ascend with lane, so a stable time sort is a
            # (deadline, seq) sort
            order = np.argsort(self._deadlines, kind="stable").astype(
                np.int64, copy=False
            )
        self._s_lanes = order
        self._s_times = self._deadlines[order]
        self._s_seqs = self._seqs[order]
        self._cursor = 0
        self._fresh: list[int] = []
        self._in_fresh = np.zeros(n, dtype=bool)
        self._proc = Process(engine, self, name=self.name)
        engine._active += 1
        telemetry = engine.telemetry
        if telemetry is not None:
            # one span per lane, same names and order as a per-lane spawn
            # loop — the carrier process itself stays invisible
            self._spans = [
                telemetry.begin(
                    f"{self.name}[{lane}]", "process",
                    facility="engine", track=f"{self.name}[{lane}]",
                )
                for lane in range(n)
            ]
        else:
            self._spans = None
        engine._push_entry((
            float(self._s_times[0]), int(self._s_seqs[0]),
            self._proc._epoch, self._proc, _BANK_FIRE,
        ))

    def _bank_fire(self, engine: Engine) -> None:
        """Dispatch the due lanes at ``engine.now``; re-register or finish.

        Only a maximal *seq-contiguous* run is fired per entry: a gap in
        the due lanes' sequence numbers means a foreign event may own a
        seq inside it and must interleave, so the bank re-registers at the
        same instant with the post-gap lane's ``(time, seq)`` and lets the
        engine's total order arbitrate. Arm blocks draw contiguous seqs,
        so the common case (one block expiring together — the million-
        timer drain) is still a single numpy dispatch.
        """
        now = engine.now
        seqs, alive = self._seqs, self._alive
        # snapshot prefix due now: one searchsorted, stale entries (lane
        # re-armed since the snapshot was cut: seq mismatch) filtered out
        j = int(np.searchsorted(self._s_times, now, side="right"))
        c = self._cursor
        lanes = self._s_lanes[c:j]
        sseqs = self._s_seqs[c:j]
        vidx = np.flatnonzero((seqs[lanes] == sseqs) & alive[lanes])
        run_parts: list[np.ndarray] = []
        last_seq: int | None = None
        complete = True  # did the run cover every valid snapshot lane?
        if vidx.size:
            vseqs = sseqs[vidx]
            gaps = np.flatnonzero(np.diff(vseqs) != 1)
            n_run = int(gaps[0]) + 1 if gaps.size else int(vidx.size)
            self._cursor = c + int(vidx[n_run - 1]) + 1
            run_parts.append(lanes[vidx[:n_run]])
            last_seq = int(vseqs[n_run - 1])
            complete = n_run == int(vidx.size)
        else:
            self._cursor = j
        if self._fresh and complete:
            # re-armed lanes due now: always newer seqs than every
            # snapshot lane (a resort clears the fresh list), so they
            # extend the run — as long as contiguity holds
            fresh_due = sorted(
                (
                    lane for lane in self._fresh
                    if alive[lane] and self._deadlines[lane] == now
                ),
                key=lambda lane: seqs[lane],
            )
            take: list[int] = []
            for lane in fresh_due:
                seq = int(seqs[lane])
                if last_seq is not None and seq != last_seq + 1:
                    break
                take.append(lane)
                last_seq = seq
            if take:
                taken = set(take)
                self._fresh = [
                    lane for lane in self._fresh if lane not in taken
                ]
                for lane in take:
                    self._in_fresh[lane] = False
                run_parts.append(np.asarray(take, dtype=np.int64))
        if run_parts:
            due = (
                np.concatenate(run_parts) if len(run_parts) > 1
                else run_parts[0]
            )
            self._fire_lanes(engine, due, now)
        self._push_next(engine)

    def _fire_lanes(
        self, engine: Engine, due: np.ndarray, now: float
    ) -> None:
        k = int(due.size)
        self.n_fired += k
        on_fire, rearm = self.on_fire, self.rearm
        telemetry = engine.telemetry
        if on_fire is None and rearm is None and telemetry is None:
            # pure sleep, uninstrumented: one numpy mass expiry — the
            # engine-side analogue of the calendar loop's inline finish
            self._alive[due] = False
            self._live -= k
            return
        survivors: list[int] = []
        legacy_delays: list[float] = []
        for lane in due.tolist():
            keep = True
            if on_fire is not None:
                r = on_fire(lane)
                if rearm is not None:
                    keep = r is not False
                else:
                    keep = r is not None
                    if keep:
                        if r < 0:
                            raise SimulationError(
                                f"timer {self.name}[{lane}] re-armed with "
                                f"negative delay {r}"
                            )
                        legacy_delays.append(r)
            else:
                keep = rearm is not None
            if keep:
                survivors.append(lane)
            else:
                self._alive[lane] = False
                self._live -= 1
                if self._spans is not None:
                    telemetry.end(self._spans[lane], killed=False)
                    self._spans[lane] = None
        if not survivors:
            return
        ns = len(survivors)
        idx = np.asarray(survivors, dtype=np.int64)
        if rearm is not None:
            # ONE block draw for every survivor of this instant — equal to
            # per-lane scalar draws (module docstring)
            self._deadlines[idx] = now + rearm.draw(ns)
        else:
            self._deadlines[idx] = now + np.asarray(legacy_delays)
        seq0 = engine._seq
        engine._seq = seq0 + ns
        self._seqs[idx] = np.arange(seq0, seq0 + ns, dtype=np.int64)
        in_fresh, fresh = self._in_fresh, self._fresh
        for lane in survivors:
            if not in_fresh[lane]:
                in_fresh[lane] = True
                fresh.append(lane)

    def _push_next(self, engine: Engine) -> None:
        """Re-register at the pending minimum ``(time, seq)``, or finish."""
        if len(self._fresh) > _RESORT_AT:
            self._resort()
        # first still-valid snapshot entry (stale ones skipped lazily)
        s_lanes, s_seqs, s_times = self._s_lanes, self._s_seqs, self._s_times
        seqs, alive = self._seqs, self._alive
        c, n = self._cursor, len(s_lanes)
        while c < n:
            lane = s_lanes[c]
            if alive[lane] and seqs[lane] == s_seqs[c]:
                break
            c += 1
        self._cursor = c
        best: tuple[float, int, int] | None = None
        if c < n:
            best = (float(s_times[c]), int(s_seqs[c]), int(s_lanes[c]))
        if self._fresh:
            live_fresh: list[int] = []
            for lane in self._fresh:
                if not alive[lane]:
                    self._in_fresh[lane] = False
                    continue
                live_fresh.append(lane)
                key = (float(self._deadlines[lane]), int(seqs[lane]), lane)
                if best is None or key[:2] < best[:2]:
                    best = key
            self._fresh = live_fresh
        if best is None:
            self._done = True
            engine._finish(self._proc, self.result)
            return
        engine._push_entry(
            (best[0], best[1], self._proc._epoch, self._proc, _BANK_FIRE)
        )

    def _resort(self) -> None:
        """Fold the fresh list back into one sorted snapshot (lexsort)."""
        lanes = np.flatnonzero(self._alive).astype(np.int64)
        times = self._deadlines[lanes]
        seqs = self._seqs[lanes]
        order = np.lexsort((seqs, times))
        self._s_lanes = lanes[order]
        self._s_times = times[order]
        self._s_seqs = seqs[order]
        self._cursor = 0
        self._fresh = []
        self._in_fresh[:] = False

    def throw(self, exc: BaseException):
        """Generator-protocol shim: an interrupt of the carrier cancels
        every live lane cleanly — no frame to throw into, exactly like an
        interrupted :class:`~repro.sim.engine.Timer`."""
        telemetry = self.engine.telemetry
        if self._spans is not None:
            for lane in np.flatnonzero(self._alive).tolist():
                span = self._spans[lane]
                if span is not None:
                    telemetry.end(span, killed=False)
                    self._spans[lane] = None
        self._alive[:] = False
        self._live = 0
        self._done = True
        raise StopIteration

    # -- public surface ----------------------------------------------------

    @property
    def live_count(self) -> int:
        """Lanes still armed."""
        return self._live

    @property
    def done(self) -> bool:
        """Every lane fired its last or was cancelled."""
        return self._done

    def cancel(self, cause: Any = None) -> int:
        """Retire every live lane cleanly; returns how many were live.

        Observably identical to interrupting per-lane timers: one
        ``interrupt:<lane>`` telemetry instant per live lane (in lane
        order), every lane span ended un-killed at the current instant,
        waiters on the bank woken with ``result``.
        """
        if self._done:
            return 0
        engine = self.engine
        proc = self._proc
        proc._epoch += 1  # invalidate the pending bank entry
        engine._schedule(engine.now, proc, _Throw(Interrupt(cause)))
        telemetry = engine.telemetry
        live = np.flatnonzero(self._alive).tolist()
        if telemetry is not None:
            for lane in live:
                lane_name = f"{self.name}[{lane}]"
                telemetry.instant(
                    f"interrupt:{lane_name}", "engine",
                    facility="engine", track=lane_name, cause=cause,
                )
        return len(live)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimerBank {self.name} lanes={self.n_lanes} "
            f"live={self.live_count} fired={self.n_fired}>"
        )
