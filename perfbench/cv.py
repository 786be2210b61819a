"""``reproduce-cv``: the paper's Table V, 10-fold CV of five classifiers
on V and J features of a paper-shaped macro dataset."""

from __future__ import annotations

import os
import time

import numpy as np
from stats import tree_peak_rss_mb
from tracer import Tracer

from repro.corpus.builder import CorpusBuilder, paper_profile
from repro.engine import AnalysisEngine
from repro.pipeline.dataset import DatasetBuilder
from repro.pipeline.experiment import ExperimentRunner

#: Paper-profile scale: ~120 distinct macros, one evaluation ~7 s today.
CV_SCALE = 0.03
FEATURE_SETS = ("V", "J")
CLASSIFIERS = ("SVM", "RF", "MLP", "LDA", "BNB")
MIN_EVALUATIONS = 2
#: Evaluation time is reported per this many dataset macros: the dataset
#: size differs from seed to seed, and the time grows with it.
LATENCY_PER_MACROS = 100


def _cell_key(cell) -> tuple:
    return (
        cell.accuracy,
        cell.precision,
        cell.recall,
        cell.f2,
        cell.auc,
        cell.cv.pooled_scores.tobytes(),
        cell.cv.pooled_pred.tobytes(),
    )


def reproduce_cv(seed: int, seconds: float, trace: bool) -> dict:
    """Dataset from a paper-shaped corpus (set-up), then feature matrices
    and the ten Table V cells, repeated; every repeat must reproduce the
    first evaluation's cells exactly."""
    started = time.perf_counter()
    built = CorpusBuilder(paper_profile().scaled(CV_SCALE), seed=seed).build()
    corpus_build_s = time.perf_counter() - started
    dataset = DatasetBuilder().build(built.documents, built.truth)
    setup_s = time.perf_counter() - started
    labels = dataset.labels
    sources = dataset.sources

    def evaluate(tracer: Tracer | None):
        engine = AnalysisEngine.for_features(FEATURE_SETS)
        runner = ExperimentRunner()
        if tracer is not None:
            matrices = tracer.span("features", lambda: engine.feature_matrices(sources))
        else:
            matrices = engine.feature_matrices(sources)
        cells, cell_s = {}, {}
        for feature_set in FEATURE_SETS:
            for name in CLASSIFIERS:
                begin = time.perf_counter()
                cells[(feature_set, name)] = runner.evaluate_cell(
                    matrices[feature_set], labels, feature_set, name
                )
                cell_s[(feature_set, name)] = time.perf_counter() - begin
        return cells, cell_s

    evaluations, eval_s = [], []
    while len(evaluations) < MIN_EVALUATIONS or sum(eval_s) < seconds:
        begin = time.perf_counter()
        cells, _ = evaluate(None)
        eval_s.append(time.perf_counter() - begin)
        evaluations.append(cells)
    peak = tree_peak_rss_mb(os.getpid())
    layers = None
    if trace:
        tracer = Tracer().install()
        try:
            begin = time.perf_counter()
            cells, cell_s = evaluate(tracer)
            traced_s = time.perf_counter() - begin
        finally:
            tracer.uninstall()
        evaluations.append(cells)
        layers = _layers(tracer, cell_s, traced_s, eval_s, len(sources), corpus_build_s)

    first = {key: _cell_key(cell) for key, cell in evaluations[0].items()}
    failed = sum(
        1
        for cells in evaluations[1:]
        for key, cell in cells.items()
        if _cell_key(cell) != first[key]
    )
    best_v = max(evaluations[0][("V", name)].f2 for name in CLASSIFIERS)
    best_j = max(evaluations[0][("J", name)].f2 for name in CLASSIFIERS)
    busy = sum(eval_s)
    result = {
        "setup_s": setup_s,
        "latencies_s": [t * LATENCY_PER_MACROS / len(sources) for t in eval_s],
        "latency_unit": f"one evaluation (feature matrices and the ten Table V cells), "
        f"scaled to {LATENCY_PER_MACROS} macros",
        "docs": len(sources) * len(eval_s),
        "source_bytes": sum(len(s.encode("utf-8")) for s in sources) * len(eval_s),
        "doc_unit": "dataset macro through feature matrices and the ten cells",
        "busy_s": busy,
        "peak_rss_mb": peak,
        "attempted": sum(len(cells) for cells in evaluations),
        "failed": failed,
        "details": {
            "evaluations": len(evaluations),
            "eval_s": sorted(eval_s)[len(eval_s) // 2],
            "table5_f2_v": best_v,
            "table5_f2_j": best_j,
            "macros": len(sources),
            "obfuscated_share": float(np.mean(labels)),
            "table5": {
                f"{fs}-{name}": round(evaluations[0][(fs, name)].f2, 4)
                for fs in FEATURE_SETS
                for name in CLASSIFIERS
            },
        },
        "properties": {
            "documents": len(built.documents),
            "macros": len(sources),
            "mean_source_bytes": round(
                sum(len(s.encode("utf-8")) for s in sources) / max(1, len(sources)), 1
            ),
            "scale": CV_SCALE,
        },
    }
    if layers is not None:
        result["layers"] = layers
    return result


def _layers(tracer, cell_s, traced_s, eval_s, macros, corpus_build_s) -> dict:
    report = tracer.report()
    analyze = report["vba.analyze"]
    untraced = sorted(eval_s)[len(eval_s) // 2]
    metrics = {
        "vba.analyze_ms": analyze["inclusive_s"] / macros * 1e3,
        "vba.analyze_calls": analyze["calls"],
        "features.featurize_ms": report.get("features.extract_matrix", {}).get(
            "inclusive_s", 0.0
        )
        / macros
        * 1e3,
        "vba.analyze_kb_per_s": analyze["meta"] / 1024 / analyze["inclusive_s"],
        "features.rows": report.get("features.extract_matrix", {}).get("meta", 0),
        "corpus.build_s": corpus_build_s,
        "trace_overhead_share": traced_s / untraced - 1.0,
    }
    for name in CLASSIFIERS:
        metrics[f"ml.cv_s.{name}"] = sum(cell_s[(fs, name)] for fs in FEATURE_SETS)
    return {
        "metrics": metrics,
        "feature_matrices_s": report.get("features", {}).get("inclusive_s", 0.0),
        "cv_s": sum(cell_s.values()),
        "cell_s": {f"{fs}-{name}": s for (fs, name), s in cell_s.items()},
    }
