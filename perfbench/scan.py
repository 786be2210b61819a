"""The two ``repro scan`` workloads: ``scan-paper`` and ``scan-fleet``."""

from __future__ import annotations

import os
import random
import time
from collections import defaultdict

from checks import ScoreOracle, check_macros, comparable
from inputs import (
    FLEET_GROUP,
    fleet_group,
    fleet_properties,
    paper_corpus,
    properties,
    training_set,
)
from stats import f2, latency_summary, tree_peak_rss_mb, weighted_median
from tracer import Tracer

from repro import ObfuscationDetector
from repro.engine import AnalysisEngine
from repro.features.cache import normalize_source
from repro.obs import MetricsRegistry

#: Paper-profile scale for scan-paper: ~100 distinct documents, more than
#: one pass at today's speed takes.
PAPER_SCALE = 0.04
#: scan-paper counts documents in units of this much macro source, for
#: latency and for docs/s: a document's cost grows with its source (150 B
#: to 65 KB here), so raw per-document figures jump between the size modes
#: of each seed's corpus while the per-size cost does not.
LATENCY_PER_BYTES = 10 * 1024
#: Fleet groups per ``run_batch`` call on scan-fleet (8 x 32 = 256 docs).
FLEET_BATCH_GROUPS = 8
JOBS = 2
#: scan-fleet checks every record, and every this-many-th batch also
#: against a serial run and exact scores (see ``check_fleet``).
FLEET_CHECK_EVERY = 10


def train_detector():
    """``repro scan`` start-up: the MLP detector on its training set."""
    return ObfuscationDetector("MLP").fit(*training_set())


def _counter(registry, name: str) -> float:
    return registry.to_dict()["counters"].get(name, 0)


def _hist_sum(registry, name: str) -> float:
    payload = registry.to_dict()["histograms"].get(name)
    return payload["sum"] if payload else 0.0


# -- scan-paper ---------------------------------------------------------


def scan_paper(seed: int, seconds: float, trace: bool) -> dict:
    """Serial closed loop, one document at a time, through
    ``AnalysisEngine.for_scan(MLP, lint=True, recover=True)`` — the engine
    behind ``repro scan --explain --recover``.  Each pass over the corpus
    uses a fresh engine, so no cache ever answers."""
    corpus = paper_corpus(seed, PAPER_SCALE)
    started = time.perf_counter()
    detector = train_detector()
    AnalysisEngine.for_scan(detector, lint=True, recover=True)  # each pass builds its own
    setup_s = time.perf_counter() - started

    sizes = [sum(len(s.encode("utf-8")) for s in m) for m in corpus.macro_sources]

    def timed_phase(tracer: Tracer | None, registry):
        latencies, records, engines = [], [], []
        busy = 0.0
        while busy < seconds:
            engine = AnalysisEngine.for_scan(
                detector, lint=True, recover=True, metrics=registry
            )
            engines.append(engine)
            if tracer is not None:
                tracer.install(engine)
            try:
                for item, size in zip(corpus.documents, sizes):
                    begin = time.perf_counter()
                    if tracer is not None:
                        record = tracer.span("document", lambda: engine.run(item))
                    else:
                        record = engine.run(item)
                    elapsed = time.perf_counter() - begin
                    latencies.append((elapsed, size))
                    records.append(record)
                    busy += elapsed
                    if busy >= seconds:
                        break
            finally:
                if tracer is not None:
                    tracer.uninstall()
        return latencies, records, engines, busy

    latencies, records, engines, busy = timed_phase(None, None)
    scaled = [t * LATENCY_PER_BYTES / max(1, b) for t, b in latencies]
    latency = latency_summary(scaled)
    # The median is taken over bytes of source, not over documents: cost
    # per byte differs between kinds of document (benign modules are
    # cheaper than obfuscated ones), so a per-document median falls
    # between the kinds and moves with the mix of each seed's corpus.
    latency["p50_ms"] = weighted_median(scaled, [b for _, b in latencies]) * 1e3
    result = {
        "setup_s": setup_s,
        "latency": latency,
        "latency_unit": f"one document, scaled to {LATENCY_PER_BYTES} bytes of macro source; "
        "median over bytes of source",
        "doc_unit": f"{LATENCY_PER_BYTES} bytes of macro source",
        "raw_per_document": dict(
            latency_summary([t for t, _ in latencies]), docs_per_s=len(records) / busy
        ),
        "source_bytes": sum(b for _, b in latencies),
        "docs": sum(b for _, b in latencies) / LATENCY_PER_BYTES,
        "busy_s": busy,
        "peak_rss_mb": tree_peak_rss_mb(os.getpid()),
    }
    failed, details = _check_paper(records, corpus, detector)
    result["attempted"] = len(records)
    result["failed"] = failed
    result["properties"] = dict(
        properties(corpus.documents, corpus.macro_sources, corpus.containers, 0),
        generated_documents=corpus.generated,
        repeats_removed_share=round(1 - len(corpus.documents) / corpus.generated, 4),
        scale=PAPER_SCALE,
    )
    result["details"] = details

    if trace:
        registry = MetricsRegistry()
        tracer = Tracer()
        t_latencies, t_records, t_engines, t_busy = timed_phase(tracer, registry)
        t_failed, _ = _check_paper(t_records, corpus, detector)
        result["attempted"] += len(t_records)
        result["failed"] += t_failed
        overhead = (result["source_bytes"] / busy) / (sum(b for _, b in t_latencies) / t_busy) - 1
        result["layers"] = _paper_layers(tracer, registry, t_records, t_engines, overhead, corpus)
    return result


def _check_paper(records, corpus, detector) -> tuple[int, dict]:
    """N records for N inputs, all ok, every score bit-identical to
    ``predict_proba([source])``; per-macro F2 against ground truth."""
    oracle = ScoreOracle(detector)
    failed = mismatches = 0
    truth, predicted = [], []
    for record in records:
        macros = [(m.source, m.score, m.verdict) for m in record.macros if m.kept]
        bad = check_macros(macros, oracle, lambda source: (source,))
        mismatches += bad
        failed += 1 if bad or not record.ok else 0
        truth.extend(corpus.truth.get(source, False) for source, _, _ in macros)
        predicted.extend(verdict == "obfuscated" for _, _, verdict in macros)
    return failed, {
        "macros_checked": len(truth),
        "score_mismatches": mismatches,
        "macro_f2": f2(truth, predicted),
    }


def _paper_layers(tracer, registry, records, engines, overhead, corpus) -> dict:
    report = tracer.report()
    docs = max(1, len(records))

    def incl(name):
        return report.get(name, {}).get("inclusive_s", 0.0)

    doc_time = incl("document")
    stages = {
        name[len("stage."):]: entry["inclusive_s"]
        for name, entry in report.items()
        if name.startswith("stage.")
    }
    engine_self = report.get("document", {}).get("self_s", 0.0)
    shares = {name: value / doc_time for name, value in stages.items()}
    shares["engine_self"] = engine_self / doc_time
    info = [engine.cache_info() for engine in engines]
    hits = sum(i["hits"] for i in info)
    lookups = hits + sum(i["misses"] for i in info)
    f_hits = sum(i["feature_hits"] for i in info)
    f_lookups = f_hits + sum(i["feature_misses"] for i in info)
    analyze = report.get("vba.analyze", {})
    analyzed = _counter(registry, "sa.analyzed")
    layers = {
        "ole.extract_ms": incl("ole.extract") / docs * 1e3,
        "ole.extract_failed": sum(
            1
            for record in records
            for d in record.diagnostics
            if d.stage == "extract" and d.level == "error"
        ),
        "vba.analyze_ms": incl("vba.analyze") / docs * 1e3,
        "vba.analyze_calls": analyze.get("calls", 0),
        "vba.analyze_kb_per_s": (analyze.get("meta", 0.0) / 1024) / analyze["inclusive_s"]
        if analyze.get("inclusive_s")
        else 0.0,
        "sa.recover_ms": incl("sa.recover") / docs * 1e3,
        "sa.recover_calls": report.get("sa.recover", {}).get("calls", 0),
        "sa.budget_exhausted_share": _counter(registry, "sa.budget_exhausted") / analyzed
        if analyzed
        else 0.0,
        "features.featurize_ms": stages.get("featurize", 0.0) / docs * 1e3,
        "features.rows": report.get("features.extract_matrix", {}).get("meta", 0),
        "features.cache_hit_share": f_hits / f_lookups if f_lookups else 0.0,
        "lint.lint_ms": incl("lint.lint") / docs * 1e3,
        "lint.findings": _counter(registry, "lint.findings"),
        "ml.classify_ms": stages.get("classify", 0.0) / docs * 1e3,
        "ml.rows_scored": _counter(registry, "classify.obfuscated")
        + _counter(registry, "classify.normal"),
        "corpus.build_s": corpus.build_s,
        "engine.doc_cache_hit_share": hits / lookups if lookups else 0.0,
        "engine.self_ms": engine_self / docs * 1e3,
        "trace_overhead_share": overhead,
    }
    return {
        "metrics": layers,
        "stage_share_of_document_time": shares,
        "document_ms": doc_time / docs * 1e3,
        "self_ms_by_span": {
            name: entry["self_s"] / docs * 1e3 for name, entry in sorted(report.items())
        },
    }


# -- scan-fleet ---------------------------------------------------------


def scan_fleet(seed: int, seconds: float, trace: bool) -> dict:
    """``repro scan --jobs 2`` defaults (MLP, V features, no lint) through
    ``run_batch`` over the warm 2-worker pool, on the fleet mix: per 32
    documents 1 novel, 3 CRLF/BOM variants, 28 exact resubmissions."""
    rng = random.Random(seed)
    started = time.perf_counter()
    detector = train_detector()
    engine = AnalysisEngine.for_scan(detector)
    _warm(engine, seed)
    setup_s = time.perf_counter() - started
    try:
        batches, outputs, latencies, busy = _fleet_phase(engine, rng, seconds)
        peak = tree_peak_rss_mb(os.getpid())
    finally:
        engine.close()

    docs = sum(len(batch) for batch in batches)
    failed, details = check_fleet(batches, outputs, detector, lint=False, every=FLEET_CHECK_EVERY)
    result = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "latency_unit": f"one run_batch call of {FLEET_BATCH_GROUPS * FLEET_GROUP} documents",
        "source_bytes": sum(len(t.encode("utf-8")) for b in batches for _, _, t in b),
        "docs": docs,
        "busy_s": busy,
        "peak_rss_mb": peak,
        "attempted": docs,
        "failed": failed,
        "details": details,
        "properties": fleet_properties([doc for batch in batches for doc in batch]),
    }
    if trace:
        result["layers"] = _traced_fleet(detector, rng, seconds, seed, docs / busy)
    return result


def _warm(engine, seed: int) -> None:
    """Spawn the pool's workers on a group of their own."""
    warm = fleet_group(random.Random(-seed - 1), "warm")
    engine.run_batch([(sid, data) for sid, data, _ in warm], jobs=JOBS)


def _fleet_phase(engine, rng, seconds: float):
    batches, outputs, latencies = [], [], []
    busy = 0.0
    while busy < seconds:
        batch = [
            doc
            for group in range(FLEET_BATCH_GROUPS)
            for doc in fleet_group(rng, f"{len(batches):03d}-{group}")
        ]
        begin = time.perf_counter()
        records = engine.run_batch([(sid, data) for sid, data, _ in batch], jobs=JOBS)
        elapsed = time.perf_counter() - begin
        busy += elapsed
        latencies.append(elapsed)
        batches.append(batch)
        outputs.append(records)
    return batches, outputs, latencies, busy


def _traced_fleet(detector, rng, seconds: float, seed: int, untraced_rate: float) -> dict:
    """A second engine with a live registry, on fresh groups, with the
    pool's ``stream`` timed from outside."""
    from repro.engine.stream import StreamingPool

    registry = MetricsRegistry()
    engine = AnalysisEngine.for_scan(detector, metrics=registry)
    _warm(engine, seed)
    warm_info = engine.cache_info()
    warm_counts = registry.to_dict()
    pool_wall: list[float] = []
    original = StreamingPool.stream

    def timed_stream(self, *args, **kwargs):
        begin = time.perf_counter()
        try:
            yield from original(self, *args, **kwargs)
        finally:
            pool_wall.append(time.perf_counter() - begin)

    StreamingPool.stream = timed_stream
    try:
        batches, _, _, busy = _fleet_phase(engine, rng, seconds)
    finally:
        StreamingPool.stream = original
        engine.close()
    docs = sum(len(batch) for batch in batches)
    info = {k: v - warm_info.get(k, 0) for k, v in engine.cache_info().items()}

    def counter(name):
        return _counter(registry, name) - warm_counts["counters"].get(name, 0)

    def busy_s(name):
        before = warm_counts["histograms"].get(name)
        return _hist_sum(registry, name) - (before["sum"] if before else 0.0)

    tasks = counter("stream.tasks")
    worker_doc = busy_s("span.document")
    pool = sum(pool_wall)
    stage_ms = {
        name: busy_s(f"span.{name}") / docs * 1e3
        for name in ("extract", "filter", "analyze", "featurize", "classify")
    }
    lookups = info["hits"] + info["misses"]
    f_lookups = info["feature_hits"] + info["feature_misses"]
    layers = {
        "ole.extract_ms": stage_ms["extract"],
        "vba.analyze_ms": stage_ms["analyze"],
        "vba.analyze_calls": info["feature_misses"],
        "features.featurize_ms": stage_ms["featurize"],
        "features.cache_hit_share": info["feature_hits"] / f_lookups if f_lookups else 0.0,
        "ml.classify_ms": stage_ms["classify"],
        "ml.rows_scored": counter("classify.obfuscated") + counter("classify.normal"),
        "engine.doc_cache_hit_share": info["hits"] / lookups if lookups else 0.0,
        "engine.self_ms": (busy - pool) / docs * 1e3,
        "stream.transport_ms": (pool - worker_doc / JOBS) / tasks * 1e3 if tasks else 0.0,
        "stream.worker_busy_share": worker_doc / (JOBS * busy) if busy else 0.0,
        "stream.tasks": tasks,
        "stream.shm_results": counter("stream.shm_results"),
        "stream.worker_restarts": counter("stream.worker_restarts"),
        "trace_overhead_share": untraced_rate / (docs / busy) - 1.0,
    }
    return {
        "metrics": layers,
        "pool_ms_per_doc": pool / docs * 1e3,
        "worker_document_ms_per_task": worker_doc / tasks * 1e3 if tasks else 0.0,
        "stage_busy_ms_per_doc": stage_ms,
    }


def check_fleet(batches, outputs, detector, lint: bool, every: int = 1) -> tuple[int, dict]:
    """Check fleet outputs; returns ``(failed documents, details)``.

    Every record: one per input, ok, and with the same macros (scores
    included) as every other record of the same input bytes.  Every ``every``-th batch, from
    the first: each record (a ``DocumentRecord`` or its JSON dict) equals
    the serial in-process record of the same input, timings and
    cached-row fields aside, and each score is the exact score of one
    encoding of its macro.  The serial run and the exact scores re-analyse
    every novel macro, which costs more than the timed phase itself, so
    scan-fleet samples them.
    """
    failed = differs = scores_differ = 0
    examples: list[dict] = []

    def fail(payload, want=None, score_failures=0):
        nonlocal failed
        failed += 1
        if len(examples) < 3:
            examples.append({"got": payload, "serial": want, "score_failures": score_failures})

    seen: dict[bytes, dict] = {}
    payloads = []
    for batch, records in zip(batches, outputs):
        failed += abs(len(batch) - len(records))
        row = []
        for (_, data, _), got in zip(batch, records):
            got = got if isinstance(got, dict) else got.to_dict()
            row.append(got)
            first = seen.setdefault(data, got)
            if not got["ok"] or first["macros"] != got["macros"]:
                fail(got)
        payloads.append(row)

    reference = AnalysisEngine.for_scan(detector, lint=lint)
    oracle = ScoreOracle(detector)
    sampled = list(range(0, len(batches), every))
    serial = {
        index: reference.run_batch([(sid, data) for sid, data, _ in batches[index]], jobs=1)
        for index in sampled
    }
    # Encodings of each macro in the order the input first carried them.
    encodings: dict[str, dict[str, None]] = defaultdict(dict)
    for index in sampled:
        for record in serial[index]:
            for macro in record.macros:
                encodings[normalize_source(macro.source)][macro.source] = None
    for index in sampled:
        for got, want in zip(payloads[index], serial[index]):
            want_dict = want.to_dict()
            differs_here = comparable(got) != comparable(want_dict)
            triples = [
                (macro.source, payload.get("score"), payload.get("verdict"))
                for macro, payload in zip(want.macros, got["macros"])
            ]
            bad = check_macros(triples, oracle, lambda s: encodings[normalize_source(s)])
            scores_differ += [m["score"] for m in got["macros"]] != [
                m["score"] for m in want_dict["macros"]
            ]
            differs += differs_here
            if differs_here or bad:
                fail(got, want_dict, bad)
    return failed, {
        "failure_examples": examples,
        "batches_checked_against_serial": len(sampled),
        "records_checked_against_serial": sum(len(batches[i]) for i in sampled),
        "records_differing_from_serial": differs,
        "scores_differing_from_serial": scores_differ,
    }
