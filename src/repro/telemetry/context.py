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

Storage is pluggable, and every closed record takes one form: its wire
record, a plain dict (:mod:`repro.telemetry.spans`), built once and handed
to each output's ``emit(record)`` in turn. By default the output is the
handle's own record list (:attr:`Telemetry.records`); a ``sink`` (any
:class:`~repro.telemetry.stream.SpanSink`, e.g. the sharded JSONL spiller)
takes its place — records stream out as they close and the handle stays
O(1) in memory. ``add_tap`` registers *observers* that see every closed
record in both modes without changing where records live — the live
pubsub hub in :mod:`repro.service` is a tap.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Callable

from repro.errors import ConfigurationError

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span, clean_attrs, span_record

#: Above this many nodes a facility gets per-task tracks instead of
#: per-node tracks — a 4 608-node machine as 4 608 Perfetto rows is noise.
DEFAULT_MAX_NODE_TRACKS = 256


def split_records(
    records: list[dict[str, Any]],
) -> tuple[list[dict[str, Any]], list[dict[str, Any]], list[dict[str, Any]]]:
    """Span, instant and sample records, in export order.

    Spans close in *end* order; sorting them by id restores begin order
    (ids are issued sequentially at ``begin``), which is all the exporters
    key on. Instants and samples keep their record order.
    """
    by_type: dict[str, list[dict[str, Any]]] = {
        "span": [], "instant": [], "sample": [],
    }
    for record in records:
        by_type[record["type"]].append(record)
    by_type["span"].sort(key=itemgetter("id"))
    return by_type["span"], by_type["instant"], by_type["sample"]


class Telemetry:
    """Collects spans, instant events, counter samples, and metrics."""

    def __init__(self, clock: Callable[[], float] | None = None, sink=None):
        self.clock = clock
        self.sink = sink
        self.metrics = MetricsRegistry()
        # every closed record goes to each of these in turn: the record
        # list (in memory) or the sink, then the taps
        self._records: list[dict[str, Any]] | None = None
        if sink is None:
            self._records = []
            self._outputs = [self._records.append]
        else:
            self._outputs = [sink.emit]
        self._next_id = 1

    # -- sinks and taps ------------------------------------------------------------

    def add_tap(self, tap) -> None:
        """Register an observer for every closed span/instant/sample.

        Taps never change where records are stored — they run in both
        in-memory and sink mode, after the sink or record list and in
        registration order, synchronously at record time;
        ``tap.emit(record)`` receives the wire record.
        """
        self._outputs.append(tap.emit)

    def _emit(self, record: dict[str, Any]) -> None:
        for emit in self._outputs:
            emit(record)

    @property
    def records(self) -> list[dict[str, Any]]:
        """Every closed span, instant and sample as its wire record, in
        close order (spans at ``end``, instants and samples when made).

        Only an in-memory handle keeps its records; a sink-backed handle
        raises, because they were spilled.
        """
        if self._records is None:
            raise ConfigurationError(
                "records are unavailable on a sink-backed handle — they "
                "were spilled; aggregate from the shards instead "
                "(repro.telemetry.stream)"
            )
        return self._records

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
        return span

    def end(self, span: Span, time: float | None = None, **attrs: Any) -> Span:
        """Close a span (idempotence is an error — a span ends once)."""
        if span.end is not None:
            raise ConfigurationError(f"span {span.name!r} already ended")
        end = self.now() if time is None else time
        if end < span.start:
            raise ConfigurationError(
                f"span {span.name!r} ends before it starts"
            )
        span.end = end
        span.attrs.update(attrs)
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

    def finished_spans(
        self, category: str | None = None
    ) -> list[dict[str, Any]]:
        """Span records in id (begin) order, optionally of one category."""
        spans, _, _ = split_records(self.records)
        if category is None:
            return spans
        return [s for s in spans if s["cat"] == category]

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
    ) -> None:
        """Record a zero-duration mark — a fault injection, a requeue."""
        self._emit({
            "type": "instant", "name": name, "cat": category,
            "facility": facility, "track": track,
            "time": self.now() if time is None else time,
            "attrs": clean_attrs(attrs),
        })

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
        self._emit({
            "type": "sample", "resource": resource,
            "time": self.now() if time is None else time,
            "value": value, "capacity": capacity, "facility": facility,
        })

    # -- replica merging ---------------------------------------------------------

    def absorb(self, other: "Telemetry", suffix: str | None = None) -> None:
        """Fold a replica's telemetry into this handle, keeping the tree valid.

        ``other`` must be in-memory; it is read, not changed. It issued
        its span ids 1, 2, … at begin, so its ids and parent links shift
        past this handle's ids by one offset. Its records go through this
        handle's outputs — span records in id order, then instants, then
        samples — so a sink-backed handle streams the merge and stays O(1)
        in merged-trace memory. Metrics merge via
        :meth:`MetricsRegistry.merge`. Spans ``other`` left open count as
        begun but are never recorded.

        ``suffix`` namespaces the absorbed records — appended to every
        facility and counter-resource name. Replica merges need it: each
        replica re-runs the same simulated timeline, so without distinct
        resource names their occupancy samples would interleave
        non-monotonically (and their Perfetto tracks would overlap).
        """
        spans, instants, samples = split_records(other.records)
        offset = self._next_id - 1
        suffix = suffix or ""
        for record in spans:
            parent = record["parent"]
            self._emit({
                **record, "id": record["id"] + offset,
                "parent": None if parent is None else parent + offset,
                "facility": record["facility"] + suffix,
            })
        for record in instants:
            self._emit({**record, "facility": record["facility"] + suffix})
        for record in samples:
            self._emit({
                **record, "facility": record["facility"] + suffix,
                "resource": record["resource"] + suffix,
            })
        self._next_id += other._next_id - 1
        self.metrics.merge(other.metrics)
