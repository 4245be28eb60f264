"""Out-of-core telemetry: size-bounded JSONL shards + incremental rollup.

ROADMAP item 3's enabling layer: a merged trace for a million-job replay
cannot live in memory, so a :class:`~repro.telemetry.context.Telemetry`
handle constructed with a :class:`ShardedJsonlSink` spills every *closed*
record (spans on ``end``, instants and counter samples at record time,
the metrics registry at ``close``) to CRC-checked :mod:`repro.segmentlog`
shard files, one wire format shared with ``to_jsonl`` and the service's
pubsub frames.

Two consumers read the shards back:

- :func:`load_shards` — the deterministic stitcher: materializes a full
  :class:`Telemetry` handle whose Chrome-trace / JSONL / summary exports
  are **byte-identical** to what the in-memory run would have produced, at
  any shard size (gated by ``audit_streaming_identity`` in
  :mod:`repro.verify`). Spans spill in *end* order; re-sorting by span id
  restores begin order, which is all the exporters key on.
- :class:`ShardAggregator` — bounded-memory incremental aggregation:
  span-duration stats per category, float-exact utilization
  step-integrals (:class:`~repro.telemetry.timeline.UtilizationAccumulator`),
  and the :class:`~repro.telemetry.metrics.MetricsRegistry` rollup, without
  ever materializing the records. Shard files aggregate independently, so
  ``consume_directory(..., n_jobs=N)`` reuses the
  :class:`~repro.exec.parallel.ParallelMap` fabric and merges the partial
  aggregates in shard order.

>>> import tempfile
>>> from repro.telemetry import Telemetry
>>> d = tempfile.mkdtemp()
>>> tel = Telemetry(sink=ShardedJsonlSink(d, shard_max_bytes=1))
>>> with tel.span("step", "bench"):
...     tel.metrics.counter("steps").inc()
>>> tel.close()
>>> [r["type"] for r in iter_shard_records(d)]
['span', 'counter']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from repro import segmentlog
from repro.errors import ConfigurationError
from repro.telemetry.context import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import CounterSample, InstantEvent, Span
from repro.telemetry.timeline import UtilizationAccumulator

__all__ = [
    "DEFAULT_SHARD_MAX_BYTES",
    "ShardAggregator",
    "ShardedJsonlSink",
    "SpanSink",
    "iter_shard_records",
    "load_shards",
    "shard_paths",
]

SHARD_PREFIX = "telemetry-"
#: Default shard rotation threshold — small enough to bound memory, large
#: enough that a scenario trace stays a handful of files.
DEFAULT_SHARD_MAX_BYTES = 4 * 1024 * 1024

#: Record types carrying a spilled metrics-registry instrument.
_METRIC_TYPES = ("counter", "gauge", "histogram")


@runtime_checkable
class SpanSink(Protocol):
    """Where a :class:`Telemetry` handle sends closed records.

    ``emit_*`` receive records exactly once, in close/record order;
    ``flush`` makes buffered records durable at a quiescent point; ``close``
    receives the final metrics registry and seals the sink. Taps registered
    via ``Telemetry.add_tap`` satisfy the ``emit_*`` subset.
    """

    def emit_span(self, span: Span) -> None: ...

    def emit_instant(self, event: InstantEvent) -> None: ...

    def emit_sample(self, sample: CounterSample) -> None: ...

    def flush(self) -> None: ...

    def close(self, metrics: MetricsRegistry | None = None) -> None: ...


def shard_paths(directory: str | Path) -> list[Path]:
    """Telemetry shards under ``directory``, in spill order."""
    return segmentlog.segment_paths(directory, SHARD_PREFIX)


class ShardedJsonlSink:
    """Spill closed telemetry records to size-bounded JSONL shard files.

    Records buffer in encoded form and are written, one unsynced write per
    shard, to ``<dir>/telemetry-00000001.jsonl``, ... once the buffer
    reaches ``shard_max_bytes``. A crash loses at most the unflushed
    buffer and tears at most a shard's final line, which readers skip.
    Peak memory is O(shard_max_bytes), independent of trace length.
    """

    def __init__(
        self,
        directory: str | Path,
        shard_max_bytes: int = DEFAULT_SHARD_MAX_BYTES,
    ):
        if shard_paths(directory):
            raise ConfigurationError(
                f"{directory} already holds telemetry shards; "
                "spill each run to a fresh directory"
            )
        self._log = segmentlog.SegmentWriter(
            directory, SHARD_PREFIX, shard_max_bytes, fsync=False
        )
        self.n_spans = 0
        self.n_instants = 0
        self.n_samples = 0

    @property
    def n_shards(self) -> int:
        return self._log.n_segments

    # -- the sink surface ----------------------------------------------------------

    def emit_span(self, span: Span) -> None:
        from repro.telemetry.export import span_record

        self.n_spans += 1
        self._emit(span_record(span))

    def emit_instant(self, event: InstantEvent) -> None:
        from repro.telemetry.export import instant_record

        self.n_instants += 1
        self._emit(instant_record(event))

    def emit_sample(self, sample: CounterSample) -> None:
        from repro.telemetry.export import sample_record

        self.n_samples += 1
        self._emit(sample_record(sample))

    def flush(self) -> None:
        """Rotate the partial buffer out as a shard (durability point)."""
        self._log.rotate()

    def close(self, metrics: MetricsRegistry | None = None) -> None:
        """Spill the metrics registry last, flush, and seal (idempotent)."""
        if self._log.closed:
            return
        from repro.telemetry.export import metric_records

        if metrics is not None:
            for record in metric_records(metrics):
                self._emit(record)
        self._log.close()

    def _emit(self, record: dict[str, Any]) -> None:
        self._log.append(record)
        if self._log.pending_bytes >= self._log.max_bytes:
            self._log.commit()


def iter_shard_records(directory: str | Path) -> segmentlog.LogReader:
    """A :class:`~repro.segmentlog.LogReader` over a shard directory's
    records, in spill order (torn shard tails skipped and counted)."""
    paths = shard_paths(directory)
    if not paths:
        raise ConfigurationError(
            f"no telemetry shards under {Path(directory)}"
        )
    return segmentlog.LogReader(paths)


def _restore_metric(metrics: MetricsRegistry, record: dict[str, Any]) -> None:
    kind = record["type"]
    name = record["name"]
    if kind == "counter":
        metrics.counter(name).inc(record["value"])
    elif kind == "gauge":
        metrics.gauge(name).set(record["value"])
    else:
        hist = metrics.histogram(name, tuple(record["edges"]))
        hist.counts = [int(c) for c in record["counts"]]
        hist.n = int(record["count"])
        hist.total = record["sum"]
        hist.min_value = record["min"]
        hist.max_value = record["max"]


def load_shards(directory: str | Path) -> Telemetry:
    """Stitch a shard directory back into a materialized handle.

    Deterministic: spans re-sort by span id (begin order — ids are issued
    sequentially at ``begin``), instants and samples keep spill order
    (their record order), metrics restore from the registry records. The
    result's ``chrome_trace_json`` / ``to_jsonl`` / ``summary`` exports are
    byte-identical to the in-memory run's at any shard size.
    """
    telemetry = Telemetry()
    spans: list[Span] = []
    for record in iter_shard_records(directory):
        kind = record["type"]
        if kind == "span":
            spans.append(Span(
                span_id=record["id"], name=record["name"],
                category=record["cat"], start=record["start"],
                facility=record["facility"], track=record["track"],
                parent_id=record["parent"], end=record["end"],
                attrs=dict(record["attrs"]),
            ))
        elif kind == "instant":
            telemetry.instants.append(InstantEvent(
                time=record["time"], name=record["name"],
                category=record["cat"], facility=record["facility"],
                track=record["track"], attrs=dict(record["attrs"]),
            ))
        elif kind == "sample":
            telemetry.samples.append(CounterSample(
                time=record["time"], resource=record["resource"],
                value=record["value"], capacity=record["capacity"],
                facility=record["facility"],
            ))
        elif kind in _METRIC_TYPES:
            _restore_metric(telemetry.metrics, record)
        else:
            raise ConfigurationError(
                f"unknown telemetry record type {kind!r} in shards"
            )
    spans.sort(key=lambda s: s.span_id)
    telemetry.spans = spans
    telemetry._next_id = (spans[-1].span_id + 1) if spans else 1
    return telemetry


# -- incremental aggregation ------------------------------------------------------


@dataclass
class CategoryStats:
    """Streaming duration stats for one span category."""

    n: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def add(self, duration: float) -> None:
        self.n += 1
        self.total += duration
        if self.min is None or duration < self.min:
            self.min = duration
        if self.max is None or duration > self.max:
            self.max = duration

    def merge(self, other: "CategoryStats") -> None:
        self.n += other.n
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0


@dataclass
class ShardAggregator:
    """Bounded-memory rollup of a shard stream (never materializes it).

    Holds per-category span stats, per-resource
    :class:`UtilizationAccumulator` step-integrals, span-tree shape
    counters (roots, max depth proxy via parent links seen), instant
    counts, and the merged :class:`MetricsRegistry` — O(categories +
    resources + instruments) memory regardless of record count.
    """

    n_records: int = 0
    n_spans: int = 0
    n_instants: int = 0
    n_samples: int = 0
    n_root_spans: int = 0
    max_span_id: int = 0
    last_time: float = 0.0
    by_category: dict[str, CategoryStats] = field(default_factory=dict)
    utilization: dict[str, UtilizationAccumulator] = field(
        default_factory=dict
    )
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def consume(self, record: dict[str, Any]) -> None:
        """Fold one wire-format record into the rollup."""
        self.n_records += 1
        kind = record["type"]
        if kind == "span":
            self.n_spans += 1
            if record["parent"] is None:
                self.n_root_spans += 1
            if record["id"] > self.max_span_id:
                self.max_span_id = record["id"]
            if record["end"] > self.last_time:
                self.last_time = record["end"]
            self.by_category.setdefault(
                record["cat"], CategoryStats()
            ).add(record["end"] - record["start"])
        elif kind == "instant":
            self.n_instants += 1
            if record["time"] > self.last_time:
                self.last_time = record["time"]
        elif kind == "sample":
            self.n_samples += 1
            resource = record["resource"]
            acc = self.utilization.get(resource)
            if acc is None:
                acc = self.utilization[resource] = UtilizationAccumulator(
                    resource
                )
            acc.add(record["time"], record["value"], record["capacity"])
            if record["time"] > self.last_time:
                self.last_time = record["time"]
        elif kind in _METRIC_TYPES:
            _restore_metric(self.metrics, record)
        else:
            raise ConfigurationError(
                f"unknown telemetry record type {kind!r}"
            )

    def consume_shard(self, path: str | Path) -> None:
        for record in segmentlog.LogReader([path]):
            self.consume(record)

    def consume_directory(
        self, directory: str | Path, n_jobs: int = 1
    ) -> "ShardAggregator":
        """Aggregate every shard under ``directory``; returns ``self``.

        ``n_jobs`` fans shard files out over the exec fabric's
        :class:`~repro.exec.parallel.ParallelMap`: each worker aggregates
        whole shards and the partial rollups merge back in shard order.
        The serial path uses the *same* per-shard-then-merge bracketing, so
        the result is bit-identical at every worker count (utilization
        integrals cross shard boundaries via one bridge term each; see
        :meth:`UtilizationAccumulator.merge`). Feed :meth:`consume` from
        :func:`iter_shard_records` instead when the record-order float sum
        must match the materialized timelines exactly.
        """
        from repro.exec.parallel import ParallelMap

        partials = ParallelMap(n_jobs).map(
            _aggregate_one_shard,
            [str(p) for p in iter_shard_records(directory).paths],
        )
        for partial in partials:
            self.merge(partial)
        return self

    def merge(self, other: "ShardAggregator") -> None:
        """Fold a later shard's rollup into this one (shard order)."""
        self.n_records += other.n_records
        self.n_spans += other.n_spans
        self.n_instants += other.n_instants
        self.n_samples += other.n_samples
        self.n_root_spans += other.n_root_spans
        self.max_span_id = max(self.max_span_id, other.max_span_id)
        self.last_time = max(self.last_time, other.last_time)
        for cat, stats in other.by_category.items():
            self.by_category.setdefault(cat, CategoryStats()).merge(stats)
        for resource, acc in other.utilization.items():
            mine = self.utilization.get(resource)
            if mine is None:
                self.utilization[resource] = acc
            else:
                mine.merge(acc)
        self.metrics.merge(other.metrics)

    # -- views ---------------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_records": self.n_records,
            "n_spans": self.n_spans,
            "n_instants": self.n_instants,
            "n_samples": self.n_samples,
            "n_root_spans": self.n_root_spans,
            "max_span_id": self.max_span_id,
            "last_time": self.last_time,
            "categories": {
                cat: {
                    "n": s.n, "total": s.total, "mean": s.mean,
                    "min": s.min, "max": s.max,
                }
                for cat, s in sorted(self.by_category.items())
            },
            "utilization": {
                resource: {
                    "busy": acc.busy_time(),
                    "utilization": acc.utilization(),
                    "peak": acc.peak(),
                    "capacity": acc.capacity(),
                    "n_samples": acc.n_samples,
                }
                for resource, acc in self.utilization.items()
            },
            "metrics": self.metrics.as_dict(),
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"shard rollup: {self.n_spans} spans "
            f"({self.n_root_spans} roots), {self.n_instants} instants, "
            f"{self.n_samples} samples",
        ]
        for cat in sorted(self.by_category):
            stats = self.by_category[cat]
            lines.append(
                f"  {cat:<18} n={stats.n:<6} total={stats.total:.6g} s  "
                f"mean={stats.mean:.6g} s"
            )
        for resource, acc in self.utilization.items():
            lines.append(
                f"  {resource:<18} busy={acc.busy_time():.6g} node-s  "
                f"util={acc.utilization():.1%}  "
                f"peak={acc.peak():g}/{acc.capacity():g}"
            )
        return lines


def _aggregate_one_shard(path: str) -> ShardAggregator:
    aggregator = ShardAggregator()
    aggregator.consume_shard(path)
    return aggregator
