"""Percentiles, tail selection, F2 and process-tree memory."""

from __future__ import annotations

import os

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest one with at least ``TAIL_MIN_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def weighted_median(values, weights) -> float:
    """The value at which the cumulative weight of ``values`` (in value
    order) first reaches half the total weight."""
    pairs = sorted(zip(values, weights))
    half, total = sum(weights) / 2.0, 0.0
    for value, weight in pairs:
        total += weight
        if total >= half:
            return value
    raise ValueError("no samples")


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond it)`` for the highest ladder
    percentile that has at least ``TAIL_MIN_BEYOND`` samples beyond it."""
    n = len(values)
    for q in TAIL_LADDER:
        beyond = int(n * (100.0 - q) / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            return q, percentile(values, q), beyond
    return 50.0, percentile(values, 50.0), n // 2


def latency_summary(seconds: list[float]) -> dict:
    """p50 and the supported tail, in milliseconds, with the sample count."""
    q, value, beyond = tail(seconds)
    return {
        "samples": len(seconds),
        "p50_ms": percentile(seconds, 50.0) * 1e3,
        "tail_percentile": q,
        "tail_ms": value * 1e3,
        "tail_samples_beyond": beyond,
    }


def f2(truth: list[bool], predicted: list[bool]) -> float:
    tp = sum(1 for t, p in zip(truth, predicted) if t and p)
    fp = sum(1 for t, p in zip(truth, predicted) if p and not t)
    fn = sum(1 for t, p in zip(truth, predicted) if t and not p)
    denominator = 5 * tp + 4 * fn + fp
    return 5 * tp / denominator if denominator else 0.0


def _children(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(root: int) -> float:
    """Sum of peak resident set sizes over ``root`` and its descendants
    that are alive now (read from ``/proc``)."""
    total, stack, seen = 0, [root], set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _hwm_kb(pid)
        stack.extend(_children(pid))
    return total / 1024.0
