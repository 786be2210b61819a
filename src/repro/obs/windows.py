"""Sliding-window telemetry: time-bucketed views over a live registry.

The cumulative :class:`~repro.obs.metrics.MetricsRegistry` answers "what
happened this run"; a service taking unbounded traffic needs "what is
happening *now*".  A :class:`SlidingWindow` derives that without touching
the hot path at all: it keeps a small ring of **cumulative snapshots**
(``registry.to_dict()`` stamped with a monotonic clock, one per time
bucket) and computes any window aggregate as *newest minus the snapshot
just outside the window*.  Counters and histogram bucket counts subtract
exactly — they are monotone sums — so sliding p50/p95, throughput, and
quarantine-rate over the last N seconds fall out of plain dict
arithmetic:

* the instruments themselves are untouched: no per-observation cost, no
  second write path, and the :data:`~repro.obs.metrics.NULL_REGISTRY`
  stays free (``tick`` on a disabled registry is one attribute check);
* snapshots are taken at most once per bucket (``tick`` is time-gated
  internally), so a million-document stream pays ``window_s/bucket_s``
  snapshot costs per window, not per document;
* the ring holds ``buckets + 1`` snapshots — O(1) memory on unbounded
  feeds, same spirit as the streaming pool's admission window.

The engine ticks an attached window from the pool's one dispatch loop
(``StreamingPool.astream``, which ``engine.stream()``, ``run_batch(jobs=N)``,
``engine.astream()`` and ``repro serve`` all run on), from the serial
document path, and from every worker-telemetry merge (the per-16-task
snapshot protocol), so window views trail live traffic by at most one
flush interval.  Every `/metrics` endpoint (through
:func:`repro.obs.export.scrape`) and the SLO burn-rate evaluator read
:meth:`SlidingWindow.view`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable

from repro.obs.metrics import Histogram, MetricsRegistry

#: Default window span (seconds) and bucket count for sliding views.
DEFAULT_WINDOW_S = 60.0
DEFAULT_BUCKETS = 12


def _snapshot_delta(
    newest: dict[str, Any], oldest: dict[str, Any] | None
) -> tuple[dict[str, float], dict[str, Histogram], dict[str, dict[str, Any]]]:
    """``newest - oldest`` over counters, histograms, and moments.

    ``oldest=None`` means the window reaches back past the first snapshot:
    the delta is the whole cumulative state.  Negative deltas (a registry
    replaced mid-stream) clamp to zero rather than report nonsense.
    """
    old_counters = oldest.get("counters", {}) if oldest else {}
    counters = {
        name: max(0.0, value - old_counters.get(name, 0))
        for name, value in newest.get("counters", {}).items()
    }

    old_histograms = oldest.get("histograms", {}) if oldest else {}
    histograms: dict[str, Histogram] = {}
    for name, payload in newest.get("histograms", {}).items():
        old = old_histograms.get(name)
        if old is not None and tuple(old["buckets"]) != tuple(payload["buckets"]):
            old = None  # bucket layout changed: treat as fresh
        delta = Histogram(tuple(payload["buckets"]))
        old_counts = old["counts"] if old else [0] * len(payload["counts"])
        delta.counts = [
            max(0, new - stale)
            for new, stale in zip(payload["counts"], old_counts)
        ]
        delta.count = sum(delta.counts)
        delta.sum = max(0.0, payload["sum"] - (old["sum"] if old else 0.0))
        if delta.count:
            # min/max are not subtractable; bound them by the occupied
            # buckets so percentile clamping stays honest for the window.
            bounds = delta.buckets
            first = next(i for i, c in enumerate(delta.counts) if c)
            last = next(
                i for i, c in reversed(list(enumerate(delta.counts))) if c
            )
            delta.min = bounds[first - 1] if first > 0 else 0.0
            delta.max = (
                bounds[last]
                if last < len(bounds)
                else (payload["max"] if payload["max"] is not None else bounds[-1])
            )
        histograms[name] = delta

    old_moments = oldest.get("moments", {}) if oldest else {}
    moments: dict[str, dict[str, Any]] = {}
    for name, payload in newest.get("moments", {}).items():
        old = old_moments.get(name)
        count = payload["count"] - (old["count"] if old else 0)
        total = payload["sum"] - (old["sum"] if old else 0.0)
        if count <= 0:
            moments[name] = {"count": 0, "sum": 0.0, "mean": 0.0}
        else:
            moments[name] = {
                "count": count,
                "sum": total,
                "mean": total / count,
            }
    return counters, histograms, moments


class WindowView:
    """One evaluated sliding window: deltas plus the span they cover."""

    __slots__ = ("window_s", "span_s", "counters", "gauges", "histograms", "moments")

    def __init__(
        self,
        window_s: float,
        span_s: float,
        counters: dict[str, float],
        gauges: dict[str, float],
        histograms: dict[str, Histogram],
        moments: dict[str, dict[str, Any]],
    ) -> None:
        self.window_s = window_s
        #: seconds the view actually covers (< window_s early in a stream)
        self.span_s = span_s
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms
        self.moments = moments

    def count(self, name: str) -> float:
        """Counter delta over the window; histogram names yield count deltas."""
        if name in self.counters:
            return self.counters[name]
        histogram = self.histograms.get(name)
        return float(histogram.count) if histogram is not None else 0.0

    def rate(self, name: str) -> float:
        """Events per second over the covered span (0 when idle)."""
        if self.span_s <= 0.0:
            return 0.0
        return self.count(name) / self.span_s

    def percentile(self, name: str, q: float) -> float:
        """Windowed quantile of histogram ``name`` (0.0 when empty)."""
        histogram = self.histograms.get(name)
        if histogram is None or not histogram.count:
            return 0.0
        return histogram.percentile(q)

    def ratio(self, numerator: str, denominator: str) -> float:
        """Windowed ``numerator/denominator`` count ratio (0 when idle)."""
        base = self.count(denominator)
        return self.count(numerator) / base if base else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "window_s": self.window_s,
            "span_s": self.span_s,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
            "moments": dict(self.moments),
        }


class SlidingWindow:
    """Ring of time-bucketed cumulative snapshots over one registry.

    ``tick(registry)`` is safe to call as often as you like — it snapshots
    at most once per ``bucket_s`` and is a no-op for disabled registries.
    ``view(registry)`` evaluates the current window on demand (the only
    place a full snapshot is unconditionally taken).
    """

    __slots__ = ("window_s", "bucket_s", "clock", "_ring", "_first_tick_at")

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        buckets: int = DEFAULT_BUCKETS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.window_s = float(window_s)
        self.bucket_s = self.window_s / int(buckets)
        self.clock = clock
        #: (stamp, cumulative snapshot) — oldest first, newest last
        self._ring: deque[tuple[float, dict[str, Any]]] = deque()
        self._first_tick_at: float | None = None

    def tick(self, registry: MetricsRegistry, now: float | None = None) -> bool:
        """Record a cumulative snapshot if the current bucket needs one.

        Returns True when a snapshot was actually taken — callers never
        need to time-gate this themselves.
        """
        if not registry.enabled:
            return False
        if now is None:
            now = self.clock()
        if self._first_tick_at is None:
            self._first_tick_at = now
        if self._ring and now - self._ring[-1][0] < self.bucket_s:
            return False
        self._ring.append((now, _strip_events(registry.to_dict())))
        self._evict(now)
        return True

    def _evict(self, now: float) -> None:
        # Keep one snapshot *older* than the window: it is the baseline
        # that "newest minus oldest" subtracts.
        horizon = now - self.window_s
        while len(self._ring) > 1 and self._ring[1][0] <= horizon:
            self._ring.popleft()

    def view(
        self, registry: MetricsRegistry, now: float | None = None
    ) -> WindowView:
        """Evaluate the sliding window ending now."""
        if now is None:
            now = self.clock()
        newest = _strip_events(registry.to_dict())
        horizon = now - self.window_s
        baseline: dict[str, Any] | None = None
        baseline_at: float | None = None
        for stamp, snapshot in self._ring:
            if stamp <= horizon:
                baseline, baseline_at = snapshot, stamp
            else:
                break
        if baseline_at is not None:
            span = now - baseline_at
        elif self._first_tick_at is not None:
            span = min(self.window_s, now - self._first_tick_at)
        else:
            span = 0.0
        counters, histograms, moments = _snapshot_delta(newest, baseline)
        return WindowView(
            self.window_s,
            max(0.0, span),
            counters,
            dict(newest.get("gauges", {})),
            histograms,
            moments,
        )

    def __len__(self) -> int:
        return len(self._ring)


def _strip_events(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Snapshots in the ring never carry the span-event buffer."""
    return {key: value for key, value in snapshot.items() if key != "events"}
