"""Counters, gauges, and fixed-bucket histograms behind one registry.

The registry is the single telemetry substrate of the repo: the staged
engine records per-stage wall time into histograms, cache traffic into
counters, and (when tracing is on) one event per span into an in-memory
buffer that serializes to JSON lines.  Three properties drive the design:

* **dependency-free** — stdlib only, so telemetry can never be the reason
  an analysis gateway fails to import;
* **picklable and mergeable** — worker processes each fill a private
  registry and the parent folds them back with :meth:`MetricsRegistry.merge`
  (commutative and associative over counts, so merge order never changes
  the totals);
* **near-zero when off** — :data:`NULL_REGISTRY` keeps the full API but
  does nothing; hot paths guard on ``registry.enabled`` and skip the
  instrumentation entirely.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

#: Default histogram upper bounds, in seconds — exponential latency ladder
#: from 0.5 ms to 10 s (an implicit +inf bucket catches the rest).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Bucket bounds for probability-valued histograms (classifier scores):
#: twenty 0.05-wide buckets over [0, 1] — fine enough for PSI drift
#: comparisons, coarse enough to stay cheap to merge and export.
SCORE_BUCKETS: tuple[float, ...] = tuple(
    round(0.05 * step, 2) for step in range(1, 21)
)


class Counter:
    """A monotonically increasing count (cache hits, stage errors, ...)."""

    __slots__ = ("value",)

    def __init__(self, value: int | float = 0) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (cache size, queue depth).  Merges by max."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with Prometheus-style ``le`` semantics.

    ``buckets`` are inclusive upper bounds; an observation equal to a bound
    lands in that bound's bucket, and anything above the last bound lands
    in the implicit overflow bucket.  Percentiles are estimated by linear
    interpolation inside the winning bucket, clamped to the observed
    min/max so small-sample estimates stay honest.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be strictly increasing and non-empty")
        self.buckets = tuple(float(bound) for bound in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (``q`` in [0, 1]) from the bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):  # overflow bucket
                    return self.max
                upper = self.buckets[index]
                lower = self.buckets[index - 1] if index else 0.0
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
        return self.max

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Histogram":
        histogram = cls(tuple(payload["buckets"]))
        histogram.counts = list(payload["counts"])
        histogram.count = payload["count"]
        histogram.sum = payload["sum"]
        histogram.min = payload["min"] if payload["min"] is not None else float("inf")
        histogram.max = payload["max"] if payload["max"] is not None else float("-inf")
        return histogram


class Moments:
    """Streaming first/second-moment summary (count, sum, sum of squares).

    The instrument for values whose *distribution shift* matters more than
    their latency ladder — feature-column values, probability scores —
    where fixed histogram buckets can't be chosen up front.  Mean and
    variance fall out of the three running sums, which add under
    :meth:`merge` exactly like counter values do, so worker summaries fold
    into the parent without loss.
    """

    __slots__ = ("count", "sum", "sum_sq", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.sum_sq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_aggregate(
        self,
        count: int,
        total: float,
        total_sq: float,
        minimum: float,
        maximum: float,
    ) -> None:
        """Fold a pre-aggregated block of observations in one call.

        The batch feature kernels hand whole column aggregates over
        (``n``, ``col.sum()``, ``(col**2).sum()``, ``col.min()``,
        ``col.max()``), so instrumenting a 256-row flush costs one call
        per column instead of 256 ``observe`` calls.
        """
        if count <= 0:
            return
        self.count += int(count)
        self.sum += float(total)
        self.sum_sq += float(total_sq)
        if minimum < self.min:
            self.min = float(minimum)
        if maximum > self.max:
            self.max = float(maximum)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        # Population variance from the running sums, clamped: float
        # cancellation can push the raw difference slightly negative.
        return max(0.0, self.sum_sq / self.count - self.mean**2)

    @property
    def std(self) -> float:
        return self.variance**0.5

    def merge(self, other: "Moments") -> None:
        self.count += other.count
        self.sum += other.sum
        self.sum_sq += other.sum_sq
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "sum_sq": self.sum_sq,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Moments":
        moments = cls()
        moments.count = payload["count"]
        moments.sum = payload["sum"]
        moments.sum_sq = payload["sum_sq"]
        moments.min = payload["min"] if payload["min"] is not None else float("inf")
        moments.max = payload["max"] if payload["max"] is not None else float("-inf")
        return moments


class MetricsRegistry:
    """Named counters/gauges/histograms plus an optional span-event buffer.

    ``trace=True`` additionally buffers one JSON-ready event per finished
    span (see :mod:`repro.obs.tracing`); metrics-only mode keeps just the
    aggregates.  Registries pickle cleanly and merge losslessly, which is
    the worker → parent telemetry protocol for ``run_batch(jobs=N)``.
    """

    enabled = True

    def __init__(self, *, trace: bool = False) -> None:
        self.trace = trace
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.moments: dict[str, Moments] = {}
        self.events: list[dict[str, Any]] = []
        self._span_depth = 0  # live nesting level; not serialized state

    # -- instruments ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        return gauge

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(buckets)
        return histogram

    def moment(self, name: str) -> Moments:
        moments = self.moments.get(name)
        if moments is None:
            moments = self.moments[name] = Moments()
        return moments

    def span(self, name: str, doc: str | None = None) -> "Span":
        from repro.obs.tracing import Span

        return Span(self, name, doc=doc)

    # -- merge protocol ------------------------------------------------

    def merge(self, other: "MetricsRegistry | dict[str, Any]") -> "MetricsRegistry":
        """Fold another registry (or its :meth:`to_dict` form) into this one.

        Counter values and histogram bucket counts add, gauges take the
        max, events concatenate — so over counts the operation is
        commutative and associative, and worker merge order is irrelevant.
        Returns ``self`` for chaining.
        """
        payload = other.to_dict() if isinstance(other, MetricsRegistry) else other
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in payload.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, histogram in payload.get("histograms", {}).items():
            self.histogram(name, tuple(histogram["buckets"])).merge(
                Histogram.from_dict(histogram)
            )
        for name, moments in payload.get("moments", {}).items():
            self.moment(name).merge(Moments.from_dict(moments))
        self.events.extend(payload.get("events", []))
        return self

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "gauges": {name: g.value for name, g in self.gauges.items()},
            "histograms": {
                name: h.to_dict() for name, h in self.histograms.items()
            },
            "moments": {name: m.to_dict() for name, m in self.moments.items()},
            "events": list(self.events),
        }

    @classmethod
    def from_dict(
        cls, payload: dict[str, Any], *, trace: bool = False
    ) -> "MetricsRegistry":
        return cls(trace=trace).merge(payload)

    def spawn(self) -> "MetricsRegistry":
        """An empty registry with the same configuration (for workers)."""
        return MetricsRegistry(trace=self.trace)

    # Slotless class, but keep pickling explicit: live span depth must not
    # leak into a worker copy.
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["_span_depth"] = 0
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)


class NullRegistry(MetricsRegistry):
    """The no-op registry: full API, zero work, zero events.

    Hot paths additionally guard on :attr:`enabled` so telemetry-off runs
    skip even the null calls: :meth:`repro.engine.stages.Stage.run`, the
    one stage runner, checks it once per stage and then calls
    ``process`` with no span, registry hand-off or timings.  This class
    exists so code that *doesn't* guard still works unconditionally.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(trace=False)
        self._null_counter = Counter()
        self._null_gauge = Gauge()
        self._null_histogram = Histogram((1.0,))
        self._null_moments = Moments()

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._null_histogram

    def moment(self, name: str) -> Moments:
        return self._null_moments

    def span(self, name: str, doc: str | None = None):
        from repro.obs.tracing import NULL_SPAN

        return NULL_SPAN

    def merge(self, other) -> "NullRegistry":
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "moments": {},
            "events": [],
        }

    def spawn(self) -> "NullRegistry":
        return self


#: Shared no-op registry — the default for every engine.
NULL_REGISTRY = NullRegistry()
