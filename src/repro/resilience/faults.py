"""Failure models and the engine-level failure injector.

Section VI of the paper argues that at full-Summit scale the job-wide mean
time between failures shrinks linearly with node count: a 4 608-node job on
hardware with a 5-year per-node MTBF sees a failure roughly every 9.5 hours.
:class:`NodeFailureModel` captures that composition law;
:class:`FailureInjector` turns it into concrete, seeded, exponential
failure events on the discrete-event engine, interrupting whatever process
represents the work running on the failed node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.engine import Engine, Process, Timer

#: Default per-node MTBF (5 years), the figure used throughout the examples.
DEFAULT_NODE_MTBF_SECONDS = 5 * 365 * 24 * 3600.0


@dataclass(frozen=True)
class NodeFailureModel:
    """Exponential per-node failures composing across a job's nodes."""

    node_mtbf_seconds: float = DEFAULT_NODE_MTBF_SECONDS

    def __post_init__(self) -> None:
        if not 0.0 < self.node_mtbf_seconds < math.inf:  # NaN fails too
            raise ConfigurationError("node MTBF must be positive and finite")

    def system_mtbf(self, n_nodes: int) -> float:
        """Job-wide MTBF: failure rates add across ``n_nodes`` nodes."""
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        return self.node_mtbf_seconds / n_nodes


@dataclass(frozen=True)
class FailureEvent:
    """One injected failure: when it struck and which node index died."""

    time: float
    node: int


@dataclass
class FailureInjector:
    """Draws node failures on an :class:`Engine` and interrupts the victim.

    Spawn one injector per job-like process via :meth:`attach`; it waits
    exponential inter-failure times at the job's system MTBF and throws an
    :class:`~repro.sim.engine.Interrupt` (whose ``cause`` is a
    :class:`FailureEvent`) into the target. The injector stops when the
    target finishes or when it is itself interrupted.

    The injector never blocks on anything but its own clock, so it rides
    the engine's generator-free :class:`~repro.sim.engine.Timer` fast path:
    each expiry is one plain callback, with no generator frame on the
    engine's hot loop. The failure times, the rng draw order (exponential
    wait, then victim node index, alternating) and the interrupt timeline
    are identical to the historical generator implementation.

    Deterministic: the same seed yields the same failure times.

    When the engine carries a :class:`~repro.telemetry.Telemetry` handle
    (or one is passed explicitly), every injection lands as a fault instant
    event plus a ``faults.injected`` counter increment.
    """

    engine: Engine
    model: NodeFailureModel = field(default_factory=NodeFailureModel)
    seed: int = 0
    events: list[FailureEvent] = field(default_factory=list)
    telemetry: Any = None  # Telemetry | None; falls back to engine.telemetry

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        if self.telemetry is None:
            self.telemetry = self.engine.telemetry

    def attach(
        self, target: Process, n_nodes: int, per_node: bool = False
    ) -> Process | list[Process]:
        """Spawn the injector stalking ``target``; returns its handle.

        The default is the historical single system-MTBF clock (one
        :class:`~repro.sim.engine.Timer`, alternating exponential-wait and
        victim-index draws) — existing seeds and goldens are untouched.

        ``per_node=True`` gives every node its own exponential MTBF clock
        instead: one ``Timer`` per node, named
        ``injector:<target>[<node>]``, so the victim is the clock that
        fired and no index is drawn. The first fires are one block draw of
        ``n_nodes`` exponentials, and each re-arm is one scalar draw. The
        superposed per-node Poisson processes compose to the same system
        MTBF law, but the rng stream differs from the single-clock path, so
        this is an explicit model choice. It returns the list of per-node
        clock processes.
        """
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if per_node:
            clocks = self._node_clocks(target, n_nodes)
        else:
            clocks = [self._system_clock(target, n_nodes)]
        # stop the injector the moment the target completes, so the engine
        # clock is not dragged past the interesting part of the simulation
        self.engine.spawn(
            self._sentinel(target, clocks), name=f"sentinel:{target.name}"
        )
        return clocks if per_node else clocks[0]

    def _system_clock(self, target: Process, n_nodes: int) -> Process:
        """One clock at the system MTBF; each fire draws the victim node."""
        mtbf = self.model.system_mtbf(n_nodes)
        rng = self._rng

        def fire() -> float | None:
            if target.finished:
                return None
            self._inject(target, int(rng.integers(0, n_nodes)))
            return float(rng.exponential(mtbf))

        return self.engine.spawn(
            Timer(float(rng.exponential(mtbf)), fire),
            name=f"injector:{target.name}",
        )

    def _node_clocks(self, target: Process, n_nodes: int) -> list[Process]:
        """One clock per node at the node MTBF; the clock's index is the node."""
        node_mtbf = self.model.node_mtbf_seconds
        rng = self._rng

        def clock(node: int):
            def fire() -> float | None:
                if target.finished:
                    return None
                self._inject(target, node)
                return float(rng.exponential(node_mtbf))

            return fire

        first = rng.exponential(node_mtbf, n_nodes).tolist()  # one block
        return [
            self.engine.spawn(
                Timer(delay, clock(node)),
                name=f"injector:{target.name}[{node}]",
            )
            for node, delay in enumerate(first)
        ]

    def _inject(self, target: Process, node: int) -> None:
        """Record a failure of ``node`` now and interrupt ``target``."""
        event = FailureEvent(time=self.engine.now, node=node)
        self.events.append(event)
        if self.telemetry is not None:
            self.telemetry.instant(
                f"failure:node{event.node}", "fault",
                facility="faults", track=target.name,
                time=event.time, node=event.node,
                target=target.name,
            )
            self.telemetry.metrics.counter("faults.injected").inc()
        target.interrupt(event)

    def _sentinel(self, target: Process, clocks: list[Process]):
        yield target
        for clock in clocks:
            clock.interrupt("target-finished")
