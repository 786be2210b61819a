"""The benchmark's metric catalogue: what is reported, in which unit, and
which end-to-end metric on which workload each layer metric should move.

``BENCHMARK.json`` lists the same names, units and bounds.
"""

from __future__ import annotations

WORKLOADS = ("scan-paper", "scan-fleet", "serve-fleet", "reproduce-cv")

#: name -> (unit, better, bound).  Every workload reports every one of
#: these.  The tail latency is in the detailed report, not here: on
#: serve-fleet it is the latency of the ~10-30 slowest analysed requests,
#: and its quartile spread over ten seeds on a 2-CPU VM was 0.27-0.45 of
#: its median, above the largest bound a metric may have.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "docs_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

_PAPER = "latency_p50_ms, docs_per_s on scan-paper"
_FRONT_END = _PAPER + "; docs_per_s on reproduce-cv; flat on scan-fleet"
_FLEET = "docs_per_s on scan-fleet"
_TRANSPORT = _FLEET + "; latency_p50_ms on serve-fleet"
_SERVE = "latency_p50_ms and the sustained rate on serve-fleet"
_CV = "docs_per_s, latency_p50_ms on reproduce-cv"

#: name -> (unit, better, what it should move).  A layer a workload does
#: not exercise reports 0.
PER_LAYER = {
    "ole.extract_ms": ("ms", "lower", "docs_per_s on scan-paper"),
    "ole.extract_failed": ("count", "lower", "docs_per_s on scan-paper"),
    "vba.analyze_ms": ("ms", "lower", _FRONT_END),
    "vba.analyze_calls": ("count", "lower", _FRONT_END),
    "vba.analyze_kb_per_s": ("KB/s", "higher", _FRONT_END),
    "sa.recover_ms": ("ms", "lower", _PAPER),
    "sa.recover_calls": ("count", "lower", _PAPER),
    "sa.budget_exhausted_share": ("share", "lower", _PAPER + " (wasted work)"),
    "features.featurize_ms": ("ms", "lower", _PAPER + "; docs_per_s on reproduce-cv"),
    "features.rows": ("count", "lower", _PAPER + "; docs_per_s on reproduce-cv"),
    "features.cache_hit_share": ("share", "higher", _FLEET),
    "lint.lint_ms": ("ms", "lower", _PAPER + "; novel documents on serve-fleet"),
    "lint.findings": ("count", "higher", _PAPER + "; serve-fleet"),
    "ml.classify_ms": ("ms", "lower", "flat on scan-paper"),
    "ml.rows_scored": ("count", "higher", "flat on scan-paper"),
    "ml.cv_s.SVM": ("s", "lower", _CV),
    "ml.cv_s.RF": ("s", "lower", _CV),
    "ml.cv_s.MLP": ("s", "lower", _CV),
    "ml.cv_s.LDA": ("s", "lower", _CV),
    "ml.cv_s.BNB": ("s", "lower", _CV),
    "corpus.build_s": ("s", "lower", "setup_s on reproduce-cv"),
    "engine.doc_cache_hit_share": ("share", "higher", _FLEET),
    "engine.self_ms": ("ms", "lower", _FLEET),
    "stream.transport_ms": ("ms", "lower", _TRANSPORT),
    "stream.worker_busy_share": ("share", "lower", _TRANSPORT),
    "stream.tasks": ("count", "lower", _TRANSPORT),
    "stream.shm_results": ("count", "lower", _TRANSPORT),
    "stream.worker_restarts": ("count", "lower", _TRANSPORT),
    "serve.server_p50_ms": ("ms", "lower", _SERVE),
    "serve.client_overhead_ms": ("ms", "lower", _SERVE),
    "serve.refused": ("count", "lower", _SERVE),
    "serve.connections_reused_share": ("share", "higher", _SERVE),
    "serve.queue_depth_peak": ("count", "lower", _SERVE),
    "trace_overhead_share": ("share", "lower", "none: the traced run against the untraced one"),
}
