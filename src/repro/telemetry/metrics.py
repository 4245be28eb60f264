"""Counters, gauges, and fixed-bucket histograms.

The registry is deliberately tiny and dependency-free: instruments are
created on first use (`registry.counter("dag.failures")`), hold plain Python
numbers, and export deterministically (instruments sorted by name, bucket
edges fixed at creation). Histogram semantics follow the Prometheus
convention: ``edges`` are inclusive upper bounds, bucket ``i`` counts values
``v`` with ``edges[i-1] < v <= edges[i]``, and one overflow bucket counts
everything above the last edge.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ConfigurationError

#: Default histogram edges for second-valued durations: 1 ms .. ~28 h in
#: roughly 4x steps — wide enough for step times and makespans alike.
DEFAULT_SECONDS_EDGES: tuple[float, ...] = (
    1e-3, 4e-3, 16e-3, 64e-3, 0.25, 1.0, 4.0, 16.0, 64.0, 256.0,
    1024.0, 4096.0, 16384.0, 65536.0,
)


def _prometheus_name(name: str) -> str:
    """Map an instrument name onto the Prometheus charset."""
    cleaned = "".join(
        c if c.isalnum() or c in "_:" else "_" for c in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def _prometheus_value(value: float) -> str:
    """Exact, deterministic float rendering for exposition lines."""
    return repr(float(value))


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"{self.name}: counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value that can move both ways."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


@dataclass
class Histogram:
    """Fixed-bucket histogram with an exact running sum and count."""

    name: str
    edges: tuple[float, ...] = DEFAULT_SECONDS_EDGES
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n: int = 0
    min_value: float | None = None
    max_value: float | None = None

    def __post_init__(self) -> None:
        if not self.edges:
            raise ConfigurationError(f"{self.name}: need at least one edge")
        if list(self.edges) != sorted(set(self.edges)):
            raise ConfigurationError(
                f"{self.name}: edges must be strictly increasing"
            )
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def record(self, value: float) -> None:
        """Count ``value`` into its bucket: ``edges[i-1] < v <= edges[i]``."""
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.total += value
        self.n += 1
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, edges: tuple[float, ...] = DEFAULT_SECONDS_EDGES
    ) -> Histogram:
        hist = self._get(name, Histogram, lambda: Histogram(name, edges))
        if hist.edges != tuple(edges):
            raise ConfigurationError(
                f"metric {name!r} already registered with different edges"
            )
        return hist

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str) -> Counter | Gauge | Histogram:
        return self._instruments[name]

    def __iter__(self):
        return iter(sorted(self._instruments))

    def __len__(self) -> int:
        return len(self._instruments)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (shard aggregation).

        Counters add, histograms combine bucket-wise (edges must match),
        and gauges take the other registry's value — last writer wins, the
        same semantics as two sequential ``set`` calls.
        """
        for name in other:
            theirs = other[name]
            if isinstance(theirs, Counter):
                self.counter(name).inc(theirs.value)
            elif isinstance(theirs, Gauge):
                self.gauge(name).set(theirs.value)
            else:
                mine = self.histogram(name, theirs.edges)
                for i, count in enumerate(theirs.counts):
                    mine.counts[i] += count
                mine.total += theirs.total
                mine.n += theirs.n
                for bound in (theirs.min_value, theirs.max_value):
                    if bound is None:
                        continue
                    if mine.min_value is None or bound < mine.min_value:
                        mine.min_value = bound
                    if mine.max_value is None or bound > mine.max_value:
                        mine.max_value = bound

    def as_dict(self) -> dict:
        """Deterministic plain-data view (for JSON export and summaries)."""
        out: dict[str, dict] = {}
        for name in self:
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = {"type": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[name] = {"type": "gauge", "value": instrument.value}
            else:
                out[name] = {
                    "type": "histogram",
                    "count": instrument.n,
                    "sum": instrument.total,
                    "min": instrument.min_value,
                    "max": instrument.max_value,
                    "edges": list(instrument.edges),
                    "counts": list(instrument.counts),
                }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every instrument.

        Conventions: counters are exposed as ``<name>_total``, gauges under
        their own name, histograms as cumulative ``_bucket{le="..."}``
        series (the overflow bucket becomes ``le="+Inf"``) plus ``_sum``
        and ``_count``. Instrument names are sanitized to the Prometheus
        charset (dots and dashes become underscores). Deterministic:
        instruments render sorted by name, floats via ``repr``.

        >>> registry = MetricsRegistry()
        >>> registry.counter("service.leases").inc(3)
        >>> print(registry.render_prometheus(), end="")
        # TYPE service_leases_total counter
        service_leases_total 3.0
        """
        lines: list[str] = []
        for name in self:
            instrument = self._instruments[name]
            pname = _prometheus_name(name)
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {pname}_total counter")
                lines.append(f"{pname}_total {_prometheus_value(instrument.value)}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_prometheus_value(instrument.value)}")
            else:
                lines.append(f"# TYPE {pname} histogram")
                cumulative = 0
                for i, edge in enumerate(instrument.edges):
                    cumulative += instrument.counts[i]
                    lines.append(
                        f'{pname}_bucket{{le="{_prometheus_value(edge)}"}} '
                        f"{cumulative}"
                    )
                cumulative += instrument.counts[-1]
                lines.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(
                    f"{pname}_sum {_prometheus_value(instrument.total)}"
                )
                lines.append(f"{pname}_count {instrument.n}")
        return "\n".join(lines) + "\n" if lines else ""

    def summary_lines(self) -> list[str]:
        """One aligned line per instrument, sorted by name."""
        lines = []
        for name in self:
            instrument = self._instruments[name]
            if isinstance(instrument, (Counter, Gauge)):
                kind = "counter" if isinstance(instrument, Counter) else "gauge"
                lines.append(f"  {name:<36} {kind:<9} {instrument.value:g}")
            else:
                lines.append(
                    f"  {name:<36} histogram n={instrument.n} "
                    f"sum={instrument.total:g} mean={instrument.mean:g}"
                )
        return lines


def metric_records(metrics: MetricsRegistry) -> Iterator[dict[str, Any]]:
    """One wire record per instrument; ``type`` is counter/gauge/histogram."""
    for name, data in metrics.as_dict().items():
        yield {"name": name, **data}
