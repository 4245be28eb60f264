"""The open-span handle and the span wire record.

A :class:`Span` is one timed interval of simulated (or wall-clock) time with
an explicit parent link — no thread-locals, no global "current span": the
code being instrumented passes the parent handle it holds, which is what
keeps traces deterministic under the discrete-event engine's interleaving.

``facility`` and ``track`` are the two levels of the Chrome-trace layout the
exporters emit: one trace *process* per facility (a machine, the scheduler
queue, the workflow layer) and one *track* (thread row) per node, resource
or task within it.

A closed span lives on only as its wire record (:func:`span_record`), the
plain dict that in-memory handles keep, JSONL exports, telemetry shards
and pubsub frames all carry, and that
:class:`~repro.telemetry.stream.ShardAggregator` rolls up. Instants and
counter samples have no handle: ``Telemetry.instant`` and
``Telemetry.sample`` build their records directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError


@dataclass
class Span:
    """One timed operation: ``[start, end]`` in the owning clock's units."""

    span_id: int
    name: str
    category: str
    start: float
    facility: str = "sim"
    track: str = "main"
    parent_id: int | None = None
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length; raises until the span has been ended."""
        if self.end is None:
            raise ConfigurationError(f"span {self.name!r} is still open")
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        when = f"{self.start:g}..{self.end:g}" if self.finished else f"{self.start:g}.."
        return f"<Span #{self.span_id} {self.name} [{when}]>"


def clean_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    """JSON-safe args: scalars pass through, anything else goes via repr."""
    out: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def span_record(span: Span) -> dict[str, Any]:
    """The wire record for one finished span.

    A record read back from a shard or a pubsub frame re-exports
    byte-identically (``clean_attrs`` is idempotent and JSON float repr
    round-trips exactly).
    """
    return {
        "type": "span", "id": span.span_id, "name": span.name,
        "cat": span.category, "facility": span.facility,
        "track": span.track, "start": span.start, "end": span.end,
        "parent": span.parent_id, "attrs": clean_attrs(span.attrs),
    }
