"""Exporters: Chrome trace-event JSON, JSON-lines, and a text summary.

``chrome_trace`` emits the Trace Event Format understood by Perfetto and
``chrome://tracing``: one trace *process* per facility, one *thread* (track)
per node/resource/task, complete ``X`` events for spans, process-scoped
``i`` instants for fault injections and requeues, and ``C`` counter tracks
for resource occupancy. Timestamps are microseconds of simulated time.

Every exporter reads only the handle's wire records (``Telemetry.records``)
and metrics. All are deterministic: spans export in id (begin) order,
instants and samples in record order, pids and tids are assigned in first-
appearance order, and the one canonical JSON encoder
(:func:`repro.segmentlog.canonical_json`) sorts keys and fixes separators —
identical runs produce byte-identical files (the property the test suite
pins).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.segmentlog import canonical_json
from repro.telemetry.context import Telemetry, split_records
from repro.telemetry.metrics import metric_records
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
    layout = _Layout()
    spans, instants, samples = split_records(telemetry.records)
    spans = [
        {
            "ph": "X",
            "name": record["name"],
            "cat": record["cat"],
            "pid": layout.pid(record["facility"]),
            "tid": layout.tid(record["facility"], record["track"]),
            "ts": record["start"] * _US,
            "dur": (record["end"] - record["start"]) * _US,
            "args": {"span_id": record["id"], "parent_id": record["parent"],
                     **record["attrs"]},
        }
        for record in spans
    ]
    instants = [
        {
            "ph": "i",
            "s": "p",
            "name": record["name"],
            "cat": record["cat"],
            "pid": layout.pid(record["facility"]),
            "tid": layout.tid(record["facility"], record["track"]),
            "ts": record["time"] * _US,
            "args": record["attrs"],
        }
        for record in instants
    ]
    counters = [
        {
            "ph": "C",
            "name": record["resource"],
            "pid": layout.pid(record["facility"]),
            "tid": 0,
            "ts": record["time"] * _US,
            "args": {"in_use": record["value"]},
        }
        for record in samples
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
    return canonical_json(chrome_trace(telemetry))


def write_chrome_trace(telemetry: Telemetry, path: str) -> None:
    """Write a ``.trace.json`` loadable in Perfetto / chrome://tracing.

    Written atomically (tmp + rename) so an interrupted export never leaves
    a torn, unparseable trace behind.
    """
    from repro.atomicio import atomic_write_text

    atomic_write_text(path, chrome_trace_json(telemetry) + "\n")


def iter_jsonl_records(telemetry: Telemetry) -> Iterator[dict[str, Any]]:
    """Records in export order: spans, instants, samples, then metrics."""
    spans, instants, samples = split_records(telemetry.records)
    yield from spans
    yield from instants
    yield from samples
    yield from metric_records(telemetry.metrics)


def to_jsonl(telemetry: Telemetry) -> str:
    """One JSON object per line: spans, instants, samples, then metrics."""
    return "\n".join(
        canonical_json(record) for record in iter_jsonl_records(telemetry)
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
            fh.write(canonical_json(record).encode("utf-8") + b"\n")


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
        f"{telemetry._next_id - 1} recorded",  # ids are issued at begin
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
