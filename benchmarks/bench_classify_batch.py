"""Batched classification kernel vs per-row scoring (ISSUE 10 tail layer).

PR 6 vectorized featurization; this bench pins down what batching the
*tail* of the pipeline buys.  ``ClassifyStage`` now flushes feature rows
through one :func:`~repro.pipeline.classifiers.proba_from_matrix` call
per micro-batch, where the old loop paid one Python round-trip into the
detector (preprocessor transform + model ``predict_proba`` on a
``(1, 15)`` row) per macro.  On a 5k-macro fleet mix:

* **kernel speedup** — one matrix call over all rows vs the same kernel
  driven one row at a time, for every one of the paper's classifiers.
  Bit-exact row parity is asserted inline (and, engine-level, by
  ``tests/engine/test_classify_batch.py``); this file asserts the speed;
* **fleet throughput** — rows/s through the batched kernel for the
  serving detector (MLP, the paper's best), the number that bounds what
  one worker's classify stage can absorb, and for RF, whose array forest
  routes every (row, tree) pair level by level.

Results land in ``benchmarks/results/classify_batch.json``; if a
committed artifact is present the run fails on a >20% regression of the
batched throughput of MLP or RF (the CI ``classify-bench`` gate).

Environment knobs: ``REPRO_BENCH_CLASSIFY_ROWS`` (fleet size, default
5000), ``REPRO_BENCH_CLASSIFY_UNIQUE`` (unique sources featurized to
seed the fleet, default 600).
"""

from __future__ import annotations

import json
import os
import random
import time

import numpy as np
from conftest import RESULTS_DIR, save_artifact

from repro import ObfuscationDetector
from repro.corpus.benign import generate_benign_module
from repro.corpus.malicious import generate_malicious_macro
from repro.features import extract_matrices
from repro.obfuscation.pipeline import default_pipeline
from repro.pipeline.classifiers import CLASSIFIER_ORDER, proba_from_matrix

ROWS = int(os.environ.get("REPRO_BENCH_CLASSIFY_ROWS", "5000"))
UNIQUE = int(os.environ.get("REPRO_BENCH_CLASSIFY_UNIQUE", "600"))
MIN_SPEEDUP = 2.0
REGRESSION_TOLERANCE = 0.8
#: The serving detector (paper's best classifier), whose batched
#: throughput is the artifact's headline figure.
SERVING = "MLP"
#: Classifiers whose batched rows/s the regression gate tracks.
GATED = (SERVING, "RF")


def build_sources(count: int) -> tuple[list[str], list[int]]:
    """Benign / malicious / obfuscated macro sources, 2:1:1."""
    rng = random.Random(35)
    pipeline = default_pipeline()
    benign = [
        generate_benign_module(rng, target_length=rng.randint(300, 2000))
        for _ in range(count // 2)
    ]
    malicious = [
        generate_malicious_macro(rng, "word") for _ in range(count // 4)
    ]
    obfuscated = [
        pipeline.run(generate_malicious_macro(rng, "word"), seed=seed).source
        for seed in range(count - len(benign) - len(malicious))
    ]
    sources = benign + malicious + obfuscated
    labels = [0] * len(benign) + [0] * len(malicious) + [1] * len(obfuscated)
    return sources, labels


def _fleet_rows(sources: list[str], rows: int) -> np.ndarray:
    """Tile the unique mix's V rows out to fleet size.

    Scoring cost depends on matrix shape, not row uniqueness, so a fleet
    of repeated real rows prices the kernel honestly without paying five
    thousand tokenizer passes in a classification bench.
    """
    unique = extract_matrices(sources, ("V",))["V"]
    repeats = -(-rows // unique.shape[0])
    return np.tile(unique, (repeats, 1))[:rows]


def _previous_artifact() -> dict | None:
    path = RESULTS_DIR / "classify_batch.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def test_batch_kernel_beats_per_row_scoring(benchmark):
    previous = _previous_artifact()
    sources, labels = build_sources(UNIQUE)
    fleet = _fleet_rows(sources, ROWS)
    assert fleet.shape == (ROWS, 15)

    detectors = {
        name: ObfuscationDetector(name).fit(sources, labels)
        for name in CLASSIFIER_ORDER
    }

    per_classifier: dict[str, dict] = {}
    for name, detector in detectors.items():
        started = time.perf_counter()
        per_row = np.vstack(
            [
                proba_from_matrix(detector, fleet[index : index + 1])
                for index in range(ROWS)
            ]
        )
        per_row_s = time.perf_counter() - started

        started = time.perf_counter()
        batch = np.asarray(proba_from_matrix(detector, fleet))
        batch_s = time.perf_counter() - started

        # The parity the engine relies on: same rows, same bits.
        assert np.array_equal(per_row, batch), name
        per_classifier[name] = {
            "per_row_s": round(per_row_s, 4),
            "batch_s": round(batch_s, 4),
            "speedup": round(per_row_s / batch_s, 1) if batch_s else None,
            "batch_rows_per_s": round(ROWS / batch_s, 1),
        }

    serving = per_classifier[SERVING]
    worst = min(entry["speedup"] for entry in per_classifier.values())

    payload = {
        "rows": ROWS,
        "unique_sources": UNIQUE,
        "serving_classifier": SERVING,
        "per_classifier": per_classifier,
        "min_speedup": worst,
        "batch_rows_per_s": serving["batch_rows_per_s"],
    }
    lines = [
        "CLASSIFY BATCH — one matrix call vs per-row scoring",
        f"fleet               : {ROWS} rows "
        f"({UNIQUE} unique sources, 2:1:1 benign/malicious/obfuscated)",
    ]
    for name, entry in per_classifier.items():
        lines.append(
            f"{name:<4}                : per-row {entry['per_row_s']:.4f} s"
            f"  batch {entry['batch_s']:.4f} s"
            f"  = {entry['speedup']}x"
            f"  ({entry['batch_rows_per_s']:.0f} rows/s)"
        )
    lines.append(
        f"worst speedup       : {worst}x  (required >= {MIN_SPEEDUP}x)"
    )
    text = "\n".join(lines)
    print("\n" + text)
    save_artifact(
        "classify_batch.json", json.dumps(payload, indent=2, sort_keys=True)
    )

    assert worst >= MIN_SPEEDUP, text
    if previous is not None:
        for name in GATED:
            committed = previous["per_classifier"][name]["batch_rows_per_s"]
            measured = per_classifier[name]["batch_rows_per_s"]
            assert measured >= committed * REGRESSION_TOLERANCE, (
                f"{name} batched scoring regressed >20%: {measured} "
                f"rows/s vs committed {committed}"
            )

    serving_detector = detectors[SERVING]
    benchmark.pedantic(
        lambda: proba_from_matrix(serving_detector, fleet),
        iterations=1,
        rounds=5,
    )
