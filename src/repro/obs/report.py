"""Human-readable rollups of registry metrics and saved trace events.

Two consumers:

* ``--stats`` on the batch CLI commands renders :func:`summarize` over the
  live registry right after a run (per-stage p50/p95/max, throughput,
  cache hit rate, error and skip counters);
* ``repro stats events.jsonl`` re-aggregates a saved trace with
  :func:`aggregate_events` — there the percentiles are exact (computed
  from the raw durations) rather than histogram-interpolated.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

#: Pipeline-order ranking for stage rows; unknown names sort after, A–Z.
_STAGE_ORDER = (
    "extract", "filter", "analyze", "featurize", "lint", "classify",
    "document", "batch",
)

#: Span names that aggregate whole documents/batches (or are pool
#: bookkeeping) rather than one pipeline stage — excluded when sizing a
#: per-stage watchdog timeout.
_NON_STAGE_SPANS = frozenset({"document", "batch", "pool.recover"})


def _stage_key(name: str) -> tuple[int, str]:
    try:
        return (_STAGE_ORDER.index(name), name)
    except ValueError:
        return (len(_STAGE_ORDER), name)


def format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 0.001:
        return f"{seconds * 1000:.1f}ms"
    return f"{seconds * 1_000_000:.0f}us"


def _render_rows(
    rows: list[tuple[str, int, float, float, float, float]]
) -> list[str]:
    lines = [
        f"  {'stage':<12} {'count':>7} {'p50':>9} {'p95':>9} {'max':>9} "
        f"{'total':>9}"
    ]
    for name, count, p50, p95, maximum, total in rows:
        lines.append(
            f"  {name:<12} {count:>7} {format_duration(p50):>9} "
            f"{format_duration(p95):>9} {format_duration(maximum):>9} "
            f"{format_duration(total):>9}"
        )
    return lines


def summarize(registry, cache_info: dict[str, int] | None = None) -> str:
    """Render the post-run ``--stats`` summary from a live registry.

    The headline counts *records returned*: one per input the engine
    answered (cache hits, coalesced twins and quarantined documents
    included), counted in the parent as each record is handed back
    (``documents.returned``), so it equals the records a batch command
    printed even after a worker was killed.  Registries without that
    counter fall back to the ``document`` span's count.  The stage rows
    are worker-recorded spans folded in by telemetry flushes: a worker
    killed mid-stream takes the spans it had not yet flushed with it, so
    after a kill the rows may count fewer documents than the headline.
    """
    snapshot = registry.to_dict()
    histograms = snapshot["histograms"]
    counters = snapshot["counters"]

    from repro.obs.metrics import Histogram

    spans = {
        name.removeprefix("span."): Histogram.from_dict(payload)
        for name, payload in histograms.items()
        if name.startswith("span.") and payload["count"]
    }
    lines = ["TELEMETRY"]

    documents = spans.get("document")
    count = counters.get("documents.returned") or (
        documents.count if documents is not None else 0
    )
    wall = None
    if "batch" in spans:
        wall = spans["batch"].sum
    elif documents is not None:
        wall = documents.sum
    if count and wall:
        lines[0] = (
            f"TELEMETRY — {count} documents in "
            f"{format_duration(wall)} ({count / wall:.1f} docs/s)"
        )

    rows = [
        (name, spans[name].count, spans[name].percentile(0.5),
         spans[name].percentile(0.95), spans[name].max, spans[name].sum)
        for name in sorted(spans, key=_stage_key)
    ]
    if rows:
        lines.extend(_render_rows(rows))

    if cache_info is not None:
        lookups = cache_info["hits"] + cache_info["misses"]
        rate = cache_info["hits"] / lookups if lookups else 0.0
        lines.append(
            f"  cache: {cache_info['hits']} hits / {cache_info['misses']} misses"
            f" / {cache_info.get('evictions', 0)} evictions"
            f" ({rate:.1%} hit rate)"
        )
        feature_lookups = cache_info.get("feature_hits", 0) + cache_info.get(
            "feature_misses", 0
        )
        if feature_lookups:
            feature_rate = cache_info["feature_hits"] / feature_lookups
            lines.append(
                f"  feature cache: {cache_info['feature_hits']} hits"
                f" / {cache_info['feature_misses']} misses"
                f" / {cache_info.get('feature_evictions', 0)} evictions"
                f" ({feature_rate:.1%} hit rate)"
            )

    errors = {
        name.removeprefix("errors."): value
        for name, value in counters.items()
        if name.startswith("errors.") and value
    }
    if errors:
        lines.append(
            "  errors: "
            + ", ".join(
                f"{stage} {count}"
                for stage, count in sorted(errors.items(), key=lambda kv: _stage_key(kv[0]))
            )
        )
    if counters.get("walk.skipped"):
        lines.append(
            f"  walk: {counters['walk.skipped']} inputs skipped "
            f"(beyond --max-depth or not regular files)"
        )
    resilience = {
        name.split(".", 1)[1]: value
        for name, value in counters.items()
        if name.startswith(("resilience.", "budget.")) and value
    }
    if resilience:
        lines.append(
            "  resilience: "
            + ", ".join(
                f"{event} {count}"
                for event, count in sorted(resilience.items())
            )
        )
    if counters.get("archive.members") or counters.get("archive.rejected"):
        lines.append(
            f"  archives: {counters.get('archive.expanded', 0)} expanded "
            f"({counters.get('archive.members', 0)} members), "
            f"{counters.get('archive.rejected', 0)} rejected by zip-bomb guards"
        )
    serving = {
        name.removeprefix("serve."): value
        for name, value in counters.items()
        if name.startswith("serve.") and not name.startswith("serve.requests.")
        and not name.startswith("serve.errors.") and value
    }
    requests = sum(
        value
        for name, value in counters.items()
        if name.startswith("serve.requests.")
    )
    if serving or requests:
        detail = ", ".join(
            f"{event} {count}" for event, count in sorted(serving.items())
        )
        lines.append(
            f"  serving: {requests} requests"
            + (f" ({detail})" if detail else "")
        )
    return "\n".join(lines)


def aggregate_events(events: Iterable[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Exact per-span-name stats from raw trace events.

    Returns ``{name: {count, errors, p50, p95, max, total, mean}}`` with
    durations in seconds and percentiles computed from the sorted raw
    values (nearest-rank).
    """
    durations: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    for event in events:
        # Traces may interleave other event types (e.g. "drift"); only
        # span events carry durations to aggregate.
        if event.get("type", "span") != "span":
            continue
        durations.setdefault(event["name"], []).append(float(event["dur"]))
        if event["outcome"] == "error":
            errors[event["name"]] = errors.get(event["name"], 0) + 1
    aggregated: dict[str, dict[str, Any]] = {}
    for name, values in durations.items():
        values.sort()
        aggregated[name] = {
            "count": len(values),
            "errors": errors.get(name, 0),
            "p50": _nearest_rank(values, 0.5),
            "p95": _nearest_rank(values, 0.95),
            "max": values[-1],
            "total": sum(values),
            "mean": sum(values) / len(values),
        }
    return aggregated


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    index = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[index]


def _ladder_round(value: float) -> float:
    """Round up to the 1-2-5 ladder (0.2, 0.5, 1, 2, 5, 10, ...)."""
    exponent = math.floor(math.log10(value))
    for mantissa in (1.0, 2.0, 5.0, 10.0):
        candidate = mantissa * 10.0**exponent
        if candidate >= value - 1e-12:
            return candidate
    raise AssertionError("unreachable")


def suggest_stage_timeout(
    aggregated: dict[str, dict[str, Any]]
) -> float | None:
    """A ``--stage-timeout`` suggestion from observed per-stage maxima.

    Takes the slowest single-stage observation in the trace (document- and
    batch-level aggregate spans excluded — a watchdog bounds *stages*),
    doubles it for headroom, and rounds up the 1-2-5 ladder so the hint is
    a number a human would actually type.  Returns ``None`` when the trace
    has no stage spans to size from; floors at 0.1s — tighter watchdogs
    misfire on ordinary scheduler jitter.
    """
    slowest = max(
        (
            stats["max"]
            for name, stats in aggregated.items()
            if name not in _NON_STAGE_SPANS
        ),
        default=0.0,
    )
    if slowest <= 0.0:
        return None
    return max(0.1, _ladder_round(slowest * 2.0))


def render_events_report(events: list[dict[str, Any]]) -> str:
    """The ``repro stats`` table over a saved JSON-lines trace."""
    if not events:
        return "no events"
    aggregated = aggregate_events(events)
    drift_events = [e for e in events if e.get("type") == "drift"]
    serve_events = [e for e in events if e.get("type") == "serve"]
    span_count = len(events) - len(drift_events) - len(serve_events)
    pids = {event["pid"] for event in events}
    lines = [
        f"TRACE — {span_count} spans across {len(pids)} process"
        f"{'es' if len(pids) != 1 else ''}"
    ]
    rows = [
        (name, stats["count"], stats["p50"], stats["p95"], stats["max"],
         stats["total"])
        for name, stats in sorted(aggregated.items(), key=lambda kv: _stage_key(kv[0]))
    ]
    lines.extend(_render_rows(rows))
    error_rows = [
        f"{name} {stats['errors']}"
        for name, stats in sorted(aggregated.items(), key=lambda kv: _stage_key(kv[0]))
        if stats["errors"]
    ]
    if error_rows:
        lines.append("  errors: " + ", ".join(error_rows))
    if drift_events:
        drifted = sum(1 for e in drift_events if e["verdict"] == "drift")
        warned = sum(1 for e in drift_events if e["verdict"] == "warn")
        lines.append(
            f"  drift: {len(drift_events)} evaluations"
            f" ({drifted} drifted, {warned} warning)"
        )
    if serve_events:
        by_kind: dict[str, int] = {}
        for event in serve_events:
            by_kind[event["event"]] = by_kind.get(event["event"], 0) + 1
        breakdown = ", ".join(
            f"{kind} {count}" for kind, count in sorted(by_kind.items())
        )
        lines.append(f"  serving: {len(serve_events)} events ({breakdown})")
    documents = aggregated.get("document")
    if documents:
        wall = aggregated.get("batch", documents)["total"]
        if wall:
            lines.append(
                f"  throughput: {documents['count'] / wall:.1f} docs/s "
                f"({documents['count']} documents in {format_duration(wall)})"
            )
    suggestion = suggest_stage_timeout(aggregated)
    if suggestion is not None:
        lines.append(
            f"  hint: --stage-timeout {suggestion:g} gives >=2x headroom "
            f"over the slowest stage observed here"
        )
    return "\n".join(lines)
