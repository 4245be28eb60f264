"""Calendar-queue event scheduling: a bucketed ring with an overflow heap.

A :class:`CalendarQueue` is a priority queue over event tuples whose first
two fields are ``(time, seq)`` — time is the sort key, the monotonically
increasing sequence number breaks ties, and because ``seq`` is unique the
comparison never reaches the payload fields. The structure is the classic
calendar queue (Brown 1988) tuned for discrete-event simulation with many
broadly homogeneous timers, organised in three tiers:

- a small *near* tier holding every entry due before the near horizon —
  a sorted list consumed through a cursor, so the hot pop path is an
  index bump and a same-time batch is one ``bisect`` plus one slice;
- a *ring* of buckets, each covering one ``width``-wide window of the
  current revolution: far inserts are an O(1) list append instead of an
  O(log n) heap sift;
- an *overflow* heap for entries beyond the ring's current revolution,
  folded back into the ring when the revolution completes.

As simulated time advances, buckets are migrated wholesale into the near
tier (one C-level ``list.sort`` per bucket), so per-event cost stays flat
as the pending-event count grows. The queue periodically rebuilds its
geometry (bucket count from the pending count, bucket width from the
observed event-time span), which changes only the constant factors, never
the pop order.

Ordering contract: pops are strictly ``(time, seq)``-ordered — exactly the
order a binary heap over the same tuples yields.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from typing import Any, Sequence

from repro.errors import ConfigurationError

__all__ = ["CalendarQueue"]

_MIN_BUCKETS = 16
_MAX_BUCKETS = 1 << 15
_INF = float("inf")


class CalendarQueue:
    """Bucketed-ring calendar queue with a sorted near list + overflow heap.

    The near tier is a *sorted list* consumed through the ``_ni`` cursor
    (not a heap): bucket migration is one C-level ``list.sort``, a pop is
    an index bump, and a same-time batch is one ``bisect_right`` plus one
    slice — no per-entry heap sifting anywhere on the hot drain path.
    """

    __slots__ = (
        "_near", "_ni", "_buckets", "_overflow", "_n", "_width",
        "_base", "_cur", "_near_end", "_ring_end", "_count", "_resize_at",
    )

    def __init__(
        self, width: float = 1.0, n_buckets: int = _MIN_BUCKETS
    ) -> None:
        if width <= 0:
            raise ConfigurationError("bucket width must be positive")
        if n_buckets < 1:
            raise ConfigurationError("need at least one bucket")
        self._near: list[tuple] = []  # sorted; entries before _ni consumed
        self._ni = 0  # near-consume cursor
        self._n = n_buckets
        self._buckets: list[list[tuple]] = [[] for _ in range(n_buckets)]
        self._overflow: list[tuple] = []
        self._width = float(width)
        self._base = 0.0  # absolute time of bucket 0's window start
        self._cur = 0  # next bucket index to migrate into the near tier
        self._near_end = 0.0  # entries strictly before this live in _near
        self._ring_end = n_buckets * float(width)
        self._count = 0
        self._resize_at = 8 * n_buckets

    def __len__(self) -> int:
        return self._count

    def push(self, entry: tuple) -> None:
        self._count += 1
        self._place(entry)
        if self._count >= self._resize_at:
            self._rebuild()

    def push_many(self, entries: list[tuple]) -> None:
        """Bulk push with the placement loop inlined.

        Same pop order as pushing one at a time; the geometry is re-derived
        up front when the bulk would cross the resize threshold, so the
        entries land in a ring already sized for them.
        """
        self._count += len(entries)
        if self._count >= self._resize_at:
            self._rebuild(extra=entries)
            return
        near_end = self._near_end
        ring_end = self._ring_end
        base = self._base
        width = self._width
        n = self._n
        buckets = self._buckets
        cur = self._cur
        overflow = self._overflow
        for entry in entries:
            t = entry[0]
            if t < near_end:
                insort(self._near, entry, lo=self._ni)
            elif t < ring_end:
                idx = int((t - base) / width)
                if idx >= n:
                    idx = n - 1
                while idx > cur and base + idx * width > t:
                    idx -= 1
                if idx < cur:
                    idx = cur
                buckets[idx].append(entry)
            else:
                heapq.heappush(overflow, entry)

    def _place(self, entry: tuple) -> None:
        """Route one entry to the correct tier (no counting, no resizing)."""
        t = entry[0]
        if t < self._near_end:
            # rare path: only entries scheduled inside the already-migrated
            # window land here, and they sort after the consumed prefix
            # because their seq is newer than everything already popped
            insort(self._near, entry, lo=self._ni)
        elif t < self._ring_end:
            base, width, cur = self._base, self._width, self._cur
            idx = int((t - base) / width)
            # Float division can land one bucket off at window boundaries;
            # the pop order only stays correct if the chosen bucket's window
            # starts at or before t and has not been migrated yet.
            if idx >= self._n:
                idx = self._n - 1
            while idx > cur and base + idx * width > t:
                idx -= 1
            if idx < cur:
                idx = cur
            self._buckets[idx].append(entry)
        else:
            heapq.heappush(self._overflow, entry)

    def _ensure_near(self) -> bool:
        """Make the near tier non-empty; ``False`` when fully drained."""
        near = self._near
        ni = self._ni
        while ni >= len(near):
            if ni:  # drop the fully consumed prefix
                self._near = near = []
                self._ni = ni = 0
            if not self._count:
                return False
            if self._cur < self._n:
                bucket = self._buckets[self._cur]
                self._cur += 1
                self._near_end = self._base + self._cur * self._width
                if bucket:
                    # one C-level sort migrates the whole bucket; appends
                    # made in seq order at equal times are already sorted,
                    # which timsort detects in linear time
                    bucket.sort()
                    self._buckets[self._cur - 1] = []
                    self._near = bucket
                    self._ni = 0
                    return True
                continue
            # revolution complete: rebase the ring where the overflow starts
            overflow = self._overflow
            if not overflow:  # pragma: no cover - guarded by _count
                return False
            if self._count * 8 < self._n and self._n > _MIN_BUCKETS:
                self._rebuild()  # the queue drained: shrink the ring
                continue
            self._base = overflow[0][0]
            self._cur = 0
            self._near_end = self._base
            self._ring_end = self._base + self._n * self._width
            while overflow and overflow[0][0] < self._ring_end:
                self._place(heapq.heappop(overflow))
        return True

    def pop(self) -> tuple:
        if not self._ensure_near():
            raise IndexError("pop from an empty CalendarQueue")
        self._count -= 1
        entry = self._near[self._ni]
        self._ni += 1
        return entry

    def peek_time(self) -> float | None:
        """Earliest pending event time, or ``None`` when empty."""
        if not self._ensure_near():
            return None
        return self._near[self._ni][0]

    def pop_time_batch(self) -> list[tuple] | None:
        """Pop every entry at the earliest pending time, in ``seq`` order.

        Complete by construction: entries still in the ring or overflow are
        at or beyond the near horizon, which is strictly after the popped
        time, so no same-time entry can be left behind.
        """
        if not self._ensure_near():
            return None
        near = self._near
        ni = self._ni
        # (when, inf) sorts after every (when, seq) and before any later time
        j = bisect_right(near, (near[ni][0], _INF), ni)
        self._ni = j
        self._count -= j - ni
        return near[ni:j]

    def _rebuild(self, extra: list[tuple] | None = None) -> None:
        """Re-derive the ring geometry from the pending population.

        Bucket count tracks the pending count (so density stays near one
        entry per bucket) and width tracks the observed event-time span.
        Pop order is unaffected — geometry only moves constant factors.
        ``extra`` lets :meth:`push_many` fold not-yet-placed entries into
        the new geometry directly.
        """
        entries = self._near[self._ni:]
        for bucket in self._buckets:
            entries.extend(bucket)
        entries.extend(self._overflow)
        if extra is not None:
            entries.extend(extra)
        count = len(entries)
        n = _MIN_BUCKETS
        while n < count and n < _MAX_BUCKETS:
            n <<= 1
        if entries:
            # min/max over the tuples themselves stays a C-level scan
            # (ties fall through to the integer seq, still C)
            lo = min(entries)[0]
            hi = max(entries)[0]
            span = hi - lo
            width = (2.0 * span / n) if span > 0 else self._width
            base = lo
        else:
            width, base = self._width, self._base
        if width <= 0 or width != width:  # zero span or NaN guard
            width = 1.0
        self._n = n
        buckets = [[] for _ in range(n)]
        self._buckets = buckets
        self._near = []
        self._ni = 0
        overflow: list[tuple] = []
        self._overflow = overflow
        self._width = width
        self._base = base
        self._cur = 0
        self._near_end = base
        ring_end = base + n * width
        self._ring_end = ring_end
        self._resize_at = max(8 * n, 4 * count)
        # _place inlined: base == lo means the near tier is unreachable,
        # so every entry lands in the ring (or the overflow in the rare
        # float-rounding case where base + n*width rounds below hi)
        for entry in entries:
            t = entry[0]
            if t < ring_end:
                idx = int((t - base) / width)
                if idx >= n:
                    idx = n - 1
                while idx and base + idx * width > t:
                    idx -= 1
                buckets[idx].append(entry)
            else:  # pragma: no cover - one-ulp rounding at the ring edge
                heapq.heappush(overflow, entry)


def _selftest(entries: Sequence[tuple[float, int]]) -> list[Any]:
    """Drain ``entries`` through a CalendarQueue; used by the doctests.

    >>> _selftest([(3.0, 1), (1.0, 2), (1.0, 0), (2.0, 3)])
    [(1.0, 0), (1.0, 2), (2.0, 3), (3.0, 1)]
    """
    q = CalendarQueue()
    for e in entries:
        q.push(e)
    out = []
    while len(q):
        out.append(q.pop())
    return out
