"""Out-of-core telemetry: size-bounded JSONL shards + incremental rollup.

A merged trace for a million-job replay cannot live in memory, so a
:class:`~repro.telemetry.context.Telemetry` handle constructed with a
:class:`ShardedJsonlSink` spills every *closed* record (spans on ``end``,
instants and counter samples at record time, the metrics registry at
``close``) to CRC-checked :mod:`repro.segmentlog` shard files, one wire
format shared with ``to_jsonl`` and the service's pubsub frames.

Two consumers read the shards back:

- :func:`load_shards` — the deterministic stitcher: the spilled records
  become the records of an in-memory :class:`Telemetry` handle whose
  Chrome-trace / JSONL / summary exports are **byte-identical** to what
  the in-memory run would have produced, at any shard size (gated by
  ``audit_streaming_identity`` in :mod:`repro.verify`). Spans spill in
  *end* order, just as an in-memory handle keeps them; the exporters
  re-sort by span id, which restores begin order.
- :class:`ShardAggregator` — the one telemetry rollup: span-duration
  stats per category (:class:`CategoryStats`), utilization step-integrals
  per resource (:class:`UtilizationAccumulator`) and the
  :class:`~repro.telemetry.metrics.MetricsRegistry`, in O(categories +
  resources + instruments) memory. It folds wire records one at a time in
  the order given — ``consume_directory`` reads a shard directory in spill
  order, and the text ``summary`` export feeds it an in-memory handle's
  records — so its float sums are plain sequential ``+=`` sums.

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
from typing import Any

from repro import segmentlog
from repro.errors import ConfigurationError
from repro.telemetry.context import Telemetry
from repro.telemetry.metrics import MetricsRegistry, metric_records

__all__ = [
    "DEFAULT_SHARD_MAX_BYTES",
    "ShardAggregator",
    "ShardedJsonlSink",
    "UtilizationAccumulator",
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

    def emit(self, record: dict[str, Any]) -> None:
        """Spill one wire record; it counts once the log has taken it."""
        self._log.append(record)
        kind = record["type"]
        if kind == "span":
            self.n_spans += 1
        elif kind == "instant":
            self.n_instants += 1
        elif kind == "sample":
            self.n_samples += 1
        if self._log.pending_bytes >= self._log.max_bytes:
            self._log.commit()

    def flush(self) -> None:
        """Rotate the partial buffer out as a shard (durability point)."""
        self._log.rotate()

    def close(self, metrics: MetricsRegistry | None = None) -> None:
        """Spill the metrics registry last, flush, and seal (idempotent)."""
        if self._log.closed:
            return
        if metrics is not None:
            for record in metric_records(metrics):
                self.emit(record)
        self._log.close()


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
    """Stitch a shard directory back into an in-memory handle.

    Deterministic: the span, instant and sample records become the
    handle's records in spill order (the exporters sort spans by id),
    metrics restore from the registry records, and the span-id counter
    resumes past the largest id. The result's ``chrome_trace_json`` /
    ``to_jsonl`` / ``summary`` exports are byte-identical to the in-memory
    run's at any shard size.
    """
    telemetry = Telemetry()
    records = telemetry.records
    for record in iter_shard_records(directory):
        kind = record["type"]
        if kind in _METRIC_TYPES:
            _restore_metric(telemetry.metrics, record)
            continue
        if kind not in ("span", "instant", "sample"):
            raise ConfigurationError(
                f"unknown telemetry record type {kind!r} in shards"
            )
        records.append(record)
        if kind == "span" and record["id"] >= telemetry._next_id:
            telemetry._next_id = record["id"] + 1
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

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0


@dataclass
class UtilizationAccumulator:
    """Streaming step-integral over one resource's samples, O(1) memory.

    The samples of an instrumented :class:`repro.sim.Resource` (one per
    grant and release) trace a right-continuous step function ``value(t)``;
    each sample's value holds until the next one, and the last contributes
    no area. Feeding the samples in record order through :meth:`add`
    yields busy node-seconds (the integral, a sequential ``+=`` over the
    ``value * dt`` terms), time-averaged utilization and peak occupancy.
    Invariants (checked by the property suite): ``0 <= utilization <= 1``
    and ``busy_time <= capacity * span`` whenever every sample satisfies
    ``0 <= value <= capacity``.

    >>> acc = UtilizationAccumulator("pool")
    >>> for t, v in [(0.0, 2.0), (1.0, 4.0), (3.0, 0.0)]:
    ...     acc.add(t, v, capacity=4.0)
    >>> acc.busy_time(), acc.peak(), acc.capacity()
    (10.0, 4.0, 4.0)
    """

    resource: str
    n_samples: int = 0
    _busy: float = 0.0
    _capacity_max: float | None = None
    _value_max: float = 0.0
    _first_time: float | None = None
    _last_time: float | None = None
    _last_value: float = 0.0

    def add(self, time: float, value: float,
            capacity: float | None = None) -> None:
        """Fold in the next sample (times must be non-decreasing)."""
        if self._last_time is not None:
            if time < self._last_time:
                raise ConfigurationError(
                    f"{self.resource}: sample times must be non-decreasing"
                )
            self._busy += self._last_value * (time - self._last_time)
        else:
            self._first_time = time
        self._last_time = time
        self._last_value = value
        self.n_samples += 1
        if capacity is not None and (
            self._capacity_max is None or capacity > self._capacity_max
        ):
            self._capacity_max = capacity
        if self.n_samples == 1 or value > self._value_max:
            self._value_max = value

    def capacity(self) -> float:
        """The largest capacity sampled, else the peak value (else 1)."""
        if self._capacity_max is not None:
            return self._capacity_max or 1.0
        return self._value_max or 1.0

    def span(self) -> float:
        """Time between the first and last sample."""
        if self._first_time is None or self._last_time is None:
            return 0.0
        return self._last_time - self._first_time

    def busy_time(self) -> float:
        """Integral of ``value(t) dt`` — busy node-seconds for node pools."""
        return self._busy

    def peak(self) -> float:
        """Highest sampled occupancy."""
        return self._value_max if self.n_samples else 0.0

    def utilization(self) -> float:
        """Time-averaged occupancy fraction over the sampled span.

        When no sample ever exceeds the capacity the true fraction is <= 1
        by construction, so summation round-off is clamped away rather
        than reported as utilization above 100%.
        """
        if self.span() == 0.0:
            return 0.0
        utilization = self._busy / (self.capacity() * self.span())
        if utilization > 1.0 and self.peak() <= self.capacity():
            return 1.0
        return utilization


@dataclass
class ShardAggregator:
    """Bounded-memory rollup of a record stream (never materializes it).

    Holds per-category span stats, per-resource
    :class:`UtilizationAccumulator` step-integrals, span-tree shape
    counters (roots, max depth proxy via parent links seen), instant
    counts, and the restored :class:`MetricsRegistry` — O(categories +
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

    def consume_directory(self, directory: str | Path) -> "ShardAggregator":
        """Fold every record under ``directory`` in spill order; returns
        ``self``."""
        for record in iter_shard_records(directory):
            self.consume(record)
        return self

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
