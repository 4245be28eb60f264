"""Exporters: Chrome trace-event JSON, JSON-lines, and a text summary.

``chrome_trace`` emits the Trace Event Format understood by Perfetto and
``chrome://tracing``: one trace *process* per facility, one *thread* (track)
per node/resource/task, complete ``X`` events for spans, process-scoped
``i`` instants for fault injections and requeues, and ``C`` counter tracks
for resource occupancy. Timestamps are microseconds of simulated time.

All exporters are deterministic: pids and tids are assigned in first-
appearance order, records serialize in record order, and the JSON encoder
uses sorted keys and fixed separators — identical runs produce
byte-identical files (the property the test suite pins).
"""

from __future__ import annotations

import json
from typing import Any, Iterator

from repro.telemetry.context import Telemetry
from repro.telemetry.metrics import metric_records
from repro.telemetry.spans import (
    clean_attrs,
    instant_record,
    sample_record,
    span_record,
)
from repro.telemetry.stream import ShardAggregator

#: Seconds -> trace microseconds.
_US = 1e6


class _Layout:
    """First-appearance-ordered pid/tid assignment."""

    def __init__(self) -> None:
        self.pids: dict[str, int] = {}
        self.tids: dict[tuple[str, str], int] = {}

    def pid(self, facility: str) -> int:
        if facility not in self.pids:
            self.pids[facility] = len(self.pids) + 1
        return self.pids[facility]

    def tid(self, facility: str, track: str) -> int:
        key = (facility, track)
        if key not in self.tids:
            # tids restart at 1 within each facility
            n_in_facility = sum(1 for f, _ in self.tids if f == facility)
            self.tids[key] = n_in_facility + 1
        return self.tids[key]


def chrome_trace(telemetry: Telemetry) -> dict:
    """The trace as a Trace-Event-Format object (``traceEvents`` + units)."""
    telemetry._guard_materialized("export")
    layout = _Layout()
    spans = []
    for span in telemetry.spans:
        if not span.finished:
            continue
        assert span.end is not None
        spans.append({
            "ph": "X",
            "name": span.name,
            "cat": span.category,
            "pid": layout.pid(span.facility),
            "tid": layout.tid(span.facility, span.track),
            "ts": span.start * _US,
            "dur": (span.end - span.start) * _US,
            "args": clean_attrs({"span_id": span.span_id,
                                 "parent_id": span.parent_id, **span.attrs}),
        })
    instants = [
        {
            "ph": "i",
            "s": "p",
            "name": event.name,
            "cat": event.category,
            "pid": layout.pid(event.facility),
            "tid": layout.tid(event.facility, event.track),
            "ts": event.time * _US,
            "args": clean_attrs(event.attrs),
        }
        for event in telemetry.instants
    ]
    counters = [
        {
            "ph": "C",
            "name": sample.resource,
            "pid": layout.pid(sample.facility),
            "tid": 0,
            "ts": sample.time * _US,
            "args": {"in_use": sample.value},
        }
        for sample in telemetry.samples
    ]
    metadata = []
    for facility, pid in layout.pids.items():
        metadata.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": facility},
        })
    for (facility, track), tid in layout.tids.items():
        metadata.append({
            "ph": "M", "name": "thread_name",
            "pid": layout.pids[facility], "tid": tid,
            "args": {"name": track},
        })
        metadata.append({
            "ph": "M", "name": "thread_sort_index",
            "pid": layout.pids[facility], "tid": tid,
            "args": {"sort_index": tid},
        })
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [*metadata, *spans, *instants, *counters],
    }


def chrome_trace_json(telemetry: Telemetry) -> str:
    """Byte-stable serialization of :func:`chrome_trace`."""
    return json.dumps(
        chrome_trace(telemetry), sort_keys=True, separators=(",", ":")
    )


def write_chrome_trace(telemetry: Telemetry, path: str) -> None:
    """Write a ``.trace.json`` loadable in Perfetto / chrome://tracing.

    Written atomically (tmp + rename) so an interrupted export never leaves
    a torn, unparseable trace behind.
    """
    from repro.atomicio import atomic_write_text

    atomic_write_text(path, chrome_trace_json(telemetry) + "\n")


def encode_record(record: dict[str, Any]) -> str:
    """Canonical one-line encoding shared by every JSONL writer."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def iter_jsonl_records(telemetry: Telemetry) -> Iterator[dict[str, Any]]:
    """Records in export order: spans, instants, samples, then metrics."""
    telemetry._guard_materialized("export")
    for span in telemetry.spans:
        if not span.finished:
            continue
        yield span_record(span)
    for event in telemetry.instants:
        yield instant_record(event)
    for sample in telemetry.samples:
        yield sample_record(sample)
    yield from metric_records(telemetry.metrics)


def to_jsonl(telemetry: Telemetry) -> str:
    """One JSON object per line: spans, instants, samples, then metrics."""
    return "\n".join(
        encode_record(record) for record in iter_jsonl_records(telemetry)
    )


def write_jsonl(telemetry: Telemetry, path: str) -> None:
    """Stream the JSONL export to ``path`` line by line, atomically.

    Unlike ``atomic_write_text(path, to_jsonl(tel))`` this never builds the
    whole export in memory — each record is encoded and written as it is
    produced, so a million-span trace exports in bounded memory. The file
    is byte-identical to ``to_jsonl(telemetry) + "\\n"``.
    """
    from repro.atomicio import atomic_writer

    with atomic_writer(path) as fh:
        for record in iter_jsonl_records(telemetry):
            fh.write(encode_record(record).encode("utf-8") + b"\n")


def summary(telemetry: Telemetry) -> str:
    """Plain-text run summary: spans by category, utilization, metrics.

    Every number comes from one :class:`ShardAggregator` fed the handle's
    records in export order — the same rollup that aggregates shards.
    """
    rollup = ShardAggregator()
    for record in iter_jsonl_records(telemetry):
        rollup.consume(record)
    lines = [
        "Telemetry summary",
        f"  spans                {rollup.n_spans} complete / "
        f"{len(telemetry.spans)} recorded",
        f"  instant events       {rollup.n_instants}",
    ]
    for cat in sorted(rollup.by_category):
        stats = rollup.by_category[cat]
        lines.append(
            f"    {cat:<18} n={stats.n:<6} "
            f"total={stats.total:.6g} s  "
            f"mean={stats.mean:.6g} s"
        )
    if rollup.utilization:
        lines.append("  utilization")
        for name, acc in rollup.utilization.items():
            lines.append(
                f"    {name:<18} busy={acc.busy_time():.6g} node-s  "
                f"util={acc.utilization():.1%}  "
                f"peak={acc.peak():g}/{acc.capacity():g}"
            )
    if len(rollup.metrics):
        lines.append("  metrics")
        lines.extend("  " + line for line in rollup.metrics.summary_lines())
    return "\n".join(lines)
