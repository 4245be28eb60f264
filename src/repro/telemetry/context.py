"""The ``Telemetry`` handle: the one object instrumented code touches.

Design rules, in order:

1. **Opt-in.** Every instrumented call site takes ``telemetry=None`` and
   does nothing when it stays ``None`` — the uninstrumented hot path is the
   seed code path, byte for byte.
2. **No globals.** Parent spans are passed explicitly; the handle owns all
   state. Two runs never share anything unless handed the same object.
3. **Deterministic.** Span ids are a simple counter, records append in call
   order, and times come from the simulation clock (or explicit ``time=``
   arguments), so identical seeds produce identical traces — the exporters
   then serialize them byte-identically.

The clock is a zero-argument callable; the discrete-event engine binds
``lambda: engine.now`` when it is constructed with a telemetry handle.
Wall-clock instrumentation (cost-sweep stage timing) passes explicit
``perf_counter`` offsets instead — keep simulated and wall traces in
separate handles.

Storage is pluggable: by default records accumulate in the in-memory
lists, but a ``sink`` (any :class:`~repro.telemetry.stream.SpanSink`, e.g.
the sharded JSONL spiller) replaces the lists entirely — records stream
out as they close and the handle stays O(1) in memory. ``add_tap``
registers *observers* that see every closed record in both modes without
changing where records live — the live pubsub hub in :mod:`repro.service`
is a tap. The sink and the taps form one output list: each closed record
is encoded once, as its wire record (:mod:`repro.telemetry.spans`), and
handed to every output's ``emit(record)`` in turn.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable

from repro.errors import ConfigurationError

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import (
    CounterSample,
    InstantEvent,
    Span,
    instant_record,
    sample_record,
    span_record,
)

#: Above this many nodes a facility gets per-task tracks instead of
#: per-node tracks — a 4 608-node machine as 4 608 Perfetto rows is noise.
DEFAULT_MAX_NODE_TRACKS = 256


class Telemetry:
    """Collects spans, instant events, counter samples, and metrics."""

    def __init__(self, clock: Callable[[], float] | None = None, sink=None):
        self.clock = clock
        self.sink = sink
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self.samples: list[CounterSample] = []
        self.metrics = MetricsRegistry()
        # every closed record goes to each of these: the sink, then taps
        self._outputs: list[Any] = [] if sink is None else [sink]
        self._next_id = 1

    # -- sinks and taps ------------------------------------------------------------

    def add_tap(self, tap) -> None:
        """Register an observer for every closed span/instant/sample.

        Taps never change where records are stored — they run in both
        in-memory and sink mode, after the sink and in registration order,
        synchronously at record time; ``tap.emit(record)`` receives the
        wire record.
        """
        self._outputs.append(tap)

    def _emit(self, record: dict[str, Any]) -> None:
        for output in self._outputs:
            output.emit(record)

    def flush(self) -> None:
        """Flush the sink (a no-op for in-memory handles).

        Instrumented loops call this at quiescent points (end of an engine
        run) so partial shards reach disk without waiting for close.
        """
        if self.sink is not None:
            self.sink.flush()

    def close(self) -> None:
        """Finalize the sink: spill the metrics registry and seal the shards.

        Idempotent; in-memory handles ignore it. After close a sink-backed
        handle accepts no further records.
        """
        if self.sink is not None:
            self.sink.close(self.metrics)

    def _guard_materialized(self, what: str) -> None:
        if self.sink is not None:
            raise ConfigurationError(
                f"{what} is unavailable on a sink-backed handle — records "
                "were spilled; aggregate from the shards instead "
                "(repro.telemetry.stream)"
            )

    # -- clock -------------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the time source (the engine does this on construction)."""
        self.clock = clock

    def now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    # -- spans -------------------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str,
        *,
        facility: str = "sim",
        track: str = "main",
        parent: Span | None = None,
        time: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; pass the returned handle to :meth:`end`."""
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start=self.now() if time is None else time,
            facility=facility,
            track=track,
            parent_id=parent.span_id if parent is not None else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        if self.sink is None:
            self.spans.append(span)
        return span

    def end(self, span: Span, time: float | None = None, **attrs: Any) -> Span:
        """Close a span (idempotence is an error — a span ends once)."""
        if span.end is not None:
            raise ConfigurationError(f"span {span.name!r} already ended")
        span.end = self.now() if time is None else time
        if span.end < span.start:
            raise ConfigurationError(
                f"span {span.name!r} ends before it starts"
            )
        span.attrs.update(attrs)
        if self._outputs:
            self._emit(span_record(span))
        return span

    @contextmanager
    def span(
        self,
        name: str,
        category: str,
        *,
        facility: str = "sim",
        track: str = "main",
        parent: Span | None = None,
        **attrs: Any,
    ):
        """Context-manager convenience for non-generator code paths."""
        span = self.begin(
            name, category, facility=facility, track=track, parent=parent,
            **attrs,
        )
        try:
            yield span
        finally:
            self.end(span)

    def finished_spans(self, category: str | None = None) -> list[Span]:
        self._guard_materialized("finished_spans")
        return [
            s for s in self.spans
            if s.finished and (category is None or s.category == category)
        ]

    # -- instants and samples ----------------------------------------------------

    def instant(
        self,
        name: str,
        category: str,
        *,
        facility: str = "sim",
        track: str = "main",
        time: float | None = None,
        **attrs: Any,
    ) -> InstantEvent:
        event = InstantEvent(
            time=self.now() if time is None else time,
            name=name,
            category=category,
            facility=facility,
            track=track,
            attrs=dict(attrs),
        )
        if self.sink is None:
            self.instants.append(event)
        if self._outputs:
            self._emit(instant_record(event))
        return event

    def sample(
        self,
        resource: str,
        value: float,
        capacity: float | None = None,
        *,
        facility: str = "sim",
        time: float | None = None,
    ) -> None:
        """Record one occupancy/queue-depth sample for a counter track."""
        sample = CounterSample(
            time=self.now() if time is None else time,
            resource=resource,
            value=value,
            capacity=capacity,
            facility=facility,
        )
        if self.sink is None:
            self.samples.append(sample)
        if self._outputs:
            self._emit(sample_record(sample))

    # -- replica merging ---------------------------------------------------------

    def absorb(self, other: "Telemetry", suffix: str | None = None) -> None:
        """Fold a replica's telemetry into this handle, keeping the tree valid.

        Span ids are re-issued from this handle's counter with parent links
        remapped (a parent is always begun before its children, so the
        mapping is complete by the time a child arrives). Instants and
        counter samples append; metrics merge via
        :meth:`MetricsRegistry.merge`. The absorbed handle must be
        discarded afterwards — its records now belong to this one.

        ``suffix`` namespaces the absorbed records — appended to every
        facility and counter-resource name. Replica merges need it: each
        replica re-runs the same simulated timeline, so without distinct
        resource names their occupancy samples would interleave
        non-monotonically (and their Perfetto tracks would overlap).

        Sink-aware: when *this* handle spills to a sink, the absorbed
        handle's finished spans, instants and samples are emitted straight
        to the sink (and taps) instead of the lists — the replica merge
        stays O(1) in merged-trace memory. The absorbed handle itself must
        be in-memory (its records have to be readable to merge).
        """
        import dataclasses

        if other.sink is not None:
            raise ConfigurationError(
                "cannot absorb a sink-backed handle — its records were "
                "spilled; merge its shard files instead"
            )
        mapping: dict[int, int] = {}
        for span in other.spans:
            new_id = self._next_id
            self._next_id += 1
            mapping[span.span_id] = new_id
            span.span_id = new_id
            if span.parent_id is not None:
                if span.parent_id not in mapping:
                    raise ConfigurationError(
                        f"span {span.name!r} references parent "
                        f"#{span.parent_id} outside the absorbed handle"
                    )
                span.parent_id = mapping[span.parent_id]
            if suffix:
                span.facility = f"{span.facility}{suffix}"
            if self.sink is None:
                self.spans.append(span)
            if span.finished and self._outputs:
                # an unfinished span could still be ended via the merged
                # handle in list mode, but outputs only ever see closed
                # records — finish spans before absorbing into a spiller
                self._emit(span_record(span))
        instants = other.instants
        samples = other.samples
        if suffix:
            instants = [
                dataclasses.replace(e, facility=f"{e.facility}{suffix}")
                for e in other.instants
            ]
            samples = [
                dataclasses.replace(
                    s,
                    facility=f"{s.facility}{suffix}",
                    resource=f"{s.resource}{suffix}",
                )
                for s in other.samples
            ]
        if self.sink is None:
            self.instants.extend(instants)
            self.samples.extend(samples)
        if self._outputs:
            for event in instants:
                self._emit(instant_record(event))
            for sample in samples:
                self._emit(sample_record(sample))
        self.metrics.merge(other.metrics)
