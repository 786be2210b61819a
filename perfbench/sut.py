"""Run one workload in this process and print its report as one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; the system under test is this process (and, on ``serve-fleet``,
the server it launches).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from stats import latency_summary


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, run_dir: Path) -> dict:
    if workload == "scan-paper":
        from scan import scan_paper

        return scan_paper(seed, seconds, trace)
    if workload == "scan-fleet":
        from scan import scan_fleet

        return scan_fleet(seed, seconds, trace)
    if workload == "serve-fleet":
        from serve_fleet import serve_fleet

        return serve_fleet(seed, seconds, trace, root, run_dir)
    if workload == "reproduce-cv":
        from cv import reproduce_cv

        return reproduce_cv(seed, seconds, trace)
    raise SystemExit(f"unknown workload {workload!r}")


def report(result: dict, trace: bool) -> dict:
    latency = result.get("latency") or latency_summary(result["latencies_s"])
    values = {
        "setup_s": result["setup_s"],
        "docs_per_s": result["docs"] / result["busy_s"],
        "latency_p50_ms": latency["p50_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if trace:
        measured = result.get("layers", {}).get("metrics", {})
        values = {name: float(measured.get(name, 0.0)) for name in PER_LAYER}
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    return {
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "latency": latency,
        "latency_unit": result.get("latency_unit", "one document"),
        "raw_per_document": result.get("raw_per_document"),
        "doc_unit": result.get("doc_unit", "one document"),
        "source_kb_per_s": result["source_bytes"] / 1024 / result["busy_s"],
        "failed_share": result["failed"] / max(1, result["attempted"]),
        "properties": result.get("properties", {}),
        "details": result.get("details", {}),
        "layers": {k: v for k, v in result.get("layers", {}).items() if k != "metrics"},
        "layer_metric_moves": {name: spec[2] for name, spec in PER_LAYER.items()}
        if trace
        else {},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.root, args.run_dir)
    print(json.dumps(report(result, bool(args.trace)), default=str))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
