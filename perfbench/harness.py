"""Shared timing, tracing and checking helpers for the perfbench workloads.

Every workload module exposes ``IMPORTS`` and ``run(ctx) -> Outcome``. The helpers here keep the workloads free of clock
and bookkeeping code:

- :class:`Tracer` times named layer spans from *outside* ``src/``: a span
  wraps one call into a layer's public function. With tracing off a span is
  still timed (the end-to-end numbers need the clocks) but nothing is kept.
- :meth:`Context.measure` times a workload's set-up and timed operation
  while a :class:`SpeedProbe` samples the CPU's speed, and
  :meth:`Context.passes` repeats a workload pass until the run length is
  spent, so every reported time is a median over several passes at the
  reference CPU speed.
- :class:`Checks` counts output checks attempted and failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wall-clock spans around calls into the program's layers.

    ``span`` always yields the elapsed-time box it fills, so untraced code
    can read its own timings; only an enabled tracer keeps the spans.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[list[float]]:
        box = [0.0]
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        if self.enabled:
            self.spans.append(Span(name, 0.0, 0.0, parent))
            self._stack.append(index)
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            box[0] = end - start
            if self.enabled:
                self._stack.pop()
                self.spans[index].start = start
                self.spans[index].end = end

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def write(self, path: Path) -> None:
        """Spans as JSON lines, start times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start_s": s.start - t0, "end_s": s.end - t0,
                }) + "\n")


class Checks:
    """Output checks: each ``expect`` is one attempted check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    def count(self, n_checked: int, failures: list[str]) -> None:
        """Record ``n_checked`` item checks of which ``failures`` failed."""
        self.attempted += n_checked
        self.failed += len(failures)
        self.messages.extend(failures[: max(0, 20 - len(self.messages))])


#: CPU seconds :func:`probe_loop` takes at the reference CPU speed.
REFERENCE_PROBE_S = 0.0015
#: How often :class:`SpeedProbe` samples the CPU's speed.
PROBE_PERIOD_S = 0.05


def probe_loop() -> float:
    """CPU time of a fixed arithmetic loop: how fast the CPU runs now.

    The loop touches no data, so the work being timed cannot slow it by
    evicting caches; and thread CPU time leaves out waits for the
    interpreter lock and for the CPU. What is left is the speed the CPU
    executes at, which neighbours on a shared host change.
    """
    start = time.thread_time()
    x = 1
    for _ in range(8_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return time.thread_time() - start


class SpeedProbe(threading.Thread):
    """Samples the CPU's speed while a timed block runs.

    A shared host runs the same code up to 1.6x slower for seconds at a
    time, so each timed block runs with this probe beside it and is
    reported at the reference speed. The probe takes about 2 % of the CPU.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples = [probe_loop()]
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(PROBE_PERIOD_S):
            self.samples.append(probe_loop())

    def stop(self) -> float:
        """Stop sampling; returns the median probe time."""
        self._stop_event.set()
        self.join()
        self.samples.append(probe_loop())
        return statistics.median(self.samples)


@dataclass
class Sample:
    kind: str  # "import", "setup" or "run"
    traced: bool
    wall: float
    probe: float  # median probe time while the sample ran

    @property
    def scaled(self) -> float:
        """The sample's wall seconds at the reference CPU speed."""
        return self.wall * REFERENCE_PROBE_S / self.probe


@dataclass
class Context:
    """What a workload receives: its seed, run length, tracer and temp dir.

    A workload wraps each pass's set-up and its timed operation in
    :meth:`measure`. The samples remember whether the tracer was on, so a
    traced run yields both the per-layer spans and the tracing overhead.
    """

    seed: int
    seconds: float
    tracer: Tracer
    tmp: Path
    trace: bool = False
    checks: Checks = field(default_factory=Checks)
    samples: list[Sample] = field(default_factory=list)
    warmup: bool = False

    @contextmanager
    def measure(self, kind: str, span: str) -> Iterator[list[float]]:
        """Time the block as span ``span`` and keep it as a ``kind`` sample."""
        probe = SpeedProbe()
        probe.start()
        try:
            with self.tracer.span(span) as box:
                yield box
        finally:
            probe_s = probe.stop()
        if not self.warmup:
            self.samples.append(
                Sample(kind, self.tracer.enabled, box[0], probe_s)
            )

    def median(self, kind: str, traced: bool | None = False,
               scaled: bool = True) -> float:
        """Median of the ``kind`` samples taken with the tracer ``traced``
        (``None``: either way), at reference speed unless not ``scaled``."""
        return statistics.median(
            s.scaled if scaled else s.wall for s in self.samples
            if s.kind == kind and traced in (None, s.traced)
        )

    def speed(self) -> float:
        """CPU speed over the run relative to the reference (1.0 = equal)."""
        return REFERENCE_PROBE_S / statistics.median(
            s.probe for s in self.samples
        )

    def scale(self, seconds: float) -> float:
        """A wall time not taken by :meth:`measure`, at reference speed."""
        return seconds * self.speed()

    def passes(self, body: Callable[[int], None]) -> int:
        """Run ``body(i)`` until the run length is spent; returns the count.

        Pass 0 is a warm-up: it runs and is checked like any other, but its
        times are dropped, so lazy imports and first-use caches do not skew
        the medians. At least two timed passes follow. Traced, the timed
        passes alternate between tracer on and off, starting on, so the
        traced run measures its own overhead on the same work.
        """
        start = time.perf_counter()
        n = 0
        while n < 3 or time.perf_counter() - start < self.seconds:
            self.warmup = n == 0
            self.tracer.enabled = self.trace and n % 2 == 1
            body(n)
            n += 1
        self.warmup = False
        self.tracer.enabled = self.trace
        return n

    def measure_imports(self, modules: list[str], repeats: int = 3) -> None:
        """Time a fresh interpreter importing ``modules``, ``repeats`` times."""
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            + "; ".join(f"import {m}" for m in modules)
        )
        for _ in range(repeats):
            with self.measure("import", "bench.import"):
                subprocess.run([sys.executable, "-c", code], check=True,
                               timeout=120)


@dataclass
class Outcome:
    """What a workload returns besides its timings.

    ``items`` counts the work units one timed pass completes; ``metrics``
    holds the workload's named end-to-end numbers as ``(value, unit)``,
    ``layers`` its per-layer numbers (traced runs only) and
    ``failed_share`` the failure ratio as ``(failed, base, base name)``.
    ``digest`` fingerprints the program's outputs: a change meant only for
    speed must leave it unchanged at every seed.
    """

    items: float
    metrics: dict[str, tuple[float, str]]
    failed_share: tuple[int, int, str]
    digest: str
    layers: dict[str, float] = field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    """Peak resident set of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def git_sha() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint() -> dict[str, Any]:
    import numpy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
