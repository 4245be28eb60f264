"""Facility-wide observability: spans, metrics, and trace export.

The quantitative telemetry the paper's evidence rests on — per-phase
timings, utilizations, bandwidths, lost node-hours — captured from the
simulation stack behind one opt-in :class:`Telemetry` handle and exported
as Chrome trace-event JSON (Perfetto-loadable), JSON-lines, or a text
summary. See the README's "Observability" section for a walkthrough.

A closed span, instant or sample takes one form, in memory and on disk:
its wire record, a plain dict built once (:mod:`~repro.telemetry.spans`)
and handed to one ``emit(record)`` on the handle's record list or sink and
on its taps. The exporters, ``absorb`` and :func:`load_shards` read only
records. One rollup, :class:`ShardAggregator`, totals span categories and
step-integrates counter samples, both for the text ``summary`` of an
in-memory handle and for a spilled shard directory.

>>> from repro.telemetry import Telemetry
>>> tel = Telemetry(clock=lambda: 0.0)
>>> with tel.span("step", "training") as sp:
...     tel.metrics.counter("steps").inc()
>>> [(r["name"], r["start"], r["end"]) for r in tel.finished_spans()]
[('step', 0.0, 0.0)]
"""

from repro.telemetry.context import DEFAULT_MAX_NODE_TRACKS, Telemetry
from repro.telemetry.export import (
    chrome_trace,
    chrome_trace_json,
    summary,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import (
    DEFAULT_SECONDS_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import Span
from repro.telemetry.stream import (
    DEFAULT_SHARD_MAX_BYTES,
    ShardAggregator,
    ShardedJsonlSink,
    UtilizationAccumulator,
    iter_shard_records,
    load_shards,
    shard_paths,
)

__all__ = [
    "DEFAULT_MAX_NODE_TRACKS",
    "DEFAULT_SECONDS_EDGES",
    "DEFAULT_SHARD_MAX_BYTES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ShardAggregator",
    "ShardedJsonlSink",
    "Span",
    "Telemetry",
    "UtilizationAccumulator",
    "chrome_trace",
    "chrome_trace_json",
    "iter_shard_records",
    "load_shards",
    "shard_paths",
    "summary",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
