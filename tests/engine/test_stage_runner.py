"""``Stage.run`` is the one stage runner: every path records the same.

The engine reaches a stage the same way with or without a hard stage
timeout, with telemetry on or off, and for a document or a bare source.
So:

* the domain metrics (counters, the score histogram, the ``feature.*``
  moments the drift monitor reads) are equal with no timeout, under
  ``Budget(stage_timeout_s=...)`` and under a request deadline;
* ``budget=None`` is total with telemetry off as well as on, and the two
  records differ only in ``timings``;
* ``run_source`` honours the hard stage timeout as ``run`` does;
* the restored moments cost one reduction per flush, bit-identical to
  per-column sums.
"""

import asyncio
import json
import random
import time

import numpy as np
import pytest

from repro import ObfuscationDetector
from repro.corpus.benign import generate_benign_module
from repro.corpus.documents import build_document_bytes
from repro.corpus.malicious import generate_malicious_macro
from repro.engine import AnalysisEngine, ExtractStage, FeaturizeStage
from repro.engine.records import DocumentRecord, MacroRecord
from repro.engine.stages import (
    AnalyzeStage,
    MacroStage,
    Stage,
    observe_feature_moments,
)
from repro.obfuscation.pipeline import default_pipeline
from repro.obs import MetricsRegistry
from repro.resilience import Budget


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(41)
    benign = [
        generate_benign_module(rng, target_length=rng.randint(300, 1500))
        for _ in range(5)
    ]
    pipeline = default_pipeline()
    obfuscated = [
        pipeline.run(generate_malicious_macro(rng, "word"), seed=index).source
        for index in range(3)
    ]
    return benign, obfuscated


@pytest.fixture(scope="module")
def detector(corpus):
    benign, obfuscated = corpus
    return ObfuscationDetector("RF").fit(
        benign + obfuscated, [0] * len(benign) + [1] * len(obfuscated)
    )


@pytest.fixture(scope="module")
def documents(corpus):
    benign, obfuscated = corpus
    return [
        (f"doc_{index}", build_document_bytes([source], "docm"))
        for index, source in enumerate(benign + obfuscated)
    ]


def domain_snapshot(registry: MetricsRegistry) -> dict:
    """What the drift monitor and ``/metrics`` read, minus wall times."""
    payload = registry.to_dict()
    return {
        "counters": payload["counters"],
        "scores": payload["histograms"]["score.probability"]["count"],
        "moments": {
            name: moments
            for name, moments in payload["moments"].items()
            if name.startswith("feature.")
        },
    }


class TestOneRunner:
    def test_domain_metrics_survive_every_stage_timeout(
        self, detector, documents
    ):
        def scan(budget=None, deadline_s=None):
            registry = MetricsRegistry()
            engine = AnalysisEngine.for_scan(
                detector, lint=True, metrics=registry, budget=budget
            )
            if deadline_s is None:
                records = [engine.run(doc) for doc in documents]
            else:

                async def collect():
                    return [
                        record
                        async for record in engine.astream(
                            documents, deadline_s=deadline_s
                        )
                    ]

                records = asyncio.run(collect())
            assert all(record.ok for record in records)
            return domain_snapshot(registry)

        plain = scan()
        assert plain["scores"] == len(documents)
        assert len(plain["moments"]) == 15  # every V dimension
        assert plain["counters"]["lint.findings"] > 0
        assert scan(budget=Budget(stage_timeout_s=30)) == plain
        assert scan(deadline_s=30) == plain


class CrashStage(Stage):
    name = "crash"

    def process(self, document: DocumentRecord) -> None:
        raise RuntimeError("boom")


def without_timings(record: DocumentRecord) -> str:
    payload = record.to_dict()
    payload.pop("timings")
    payload["features"] = [
        {name: row.tolist() for name, row in macro.features.items()}
        for macro in record.macros
    ]
    return json.dumps(payload, sort_keys=True)


def crashing_engine(metrics=None) -> AnalysisEngine:
    return AnalysisEngine(
        stages=[ExtractStage(), CrashStage(), AnalyzeStage(), FeaturizeStage()],
        budget=None,
        metrics=metrics,
    )


class TestUnlimitedBudgetIsTotal:
    def test_crash_degrades_with_telemetry_off(self, documents):
        record = crashing_engine().run(documents[0])
        assert record.degraded
        assert record.completed_stages == ["extract", "analyze", "featurize"]
        assert "stage crashed: RuntimeError: boom" in record.error
        assert record.macros[0].features["V"] is not None
        assert record.timings == {}

    def test_telemetry_on_differs_only_in_timings(self, documents):
        off = crashing_engine().run(documents[0])
        registry = MetricsRegistry()
        on = crashing_engine(registry).run(documents[0])
        assert set(on.timings) == {
            "extract", "crash", "analyze", "featurize", "document"
        }
        assert without_timings(on) == without_timings(off)
        assert registry.counter("resilience.stage_crashes").value == 1


class SleepMacroStage(MacroStage):
    name = "sleep"

    def process_macro(
        self, macro: MacroRecord, document: DocumentRecord | None = None
    ) -> None:
        time.sleep(2.0)


class TestRunSourceWatchdog:
    @pytest.mark.parametrize("telemetry", [False, True])
    def test_run_source_honours_the_stage_timeout(self, telemetry):
        registry = MetricsRegistry() if telemetry else None
        engine = AnalysisEngine(
            stages=[AnalyzeStage(), SleepMacroStage(), FeaturizeStage()],
            budget=Budget(stage_timeout_s=0.3),
            metrics=registry,
        )
        start = time.perf_counter()
        macro = engine.run_source("Sub A()\n  MsgBox 1\nEnd Sub\n")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.5
        assert macro.filtered == "budget"
        assert "V" not in macro.features  # the loop stopped at the timeout
        if telemetry:
            assert registry.counter("budget.timeouts").value == 1
            assert registry.histogram("span.sleep").count == 1


def per_column_moments(matrix: np.ndarray) -> dict:
    """The moments as four reductions per column: the reference."""
    registry = MetricsRegistry()
    for index in range(matrix.shape[1]):
        column = matrix[:, index]
        registry.moment(f"feature.V.c{index:02d}").observe_aggregate(
            matrix.shape[0],
            float(column.sum()),
            float((column * column).sum()),
            float(column.min()),
            float(column.max()),
        )
    return registry.to_dict()["moments"]


class TestFeatureMoments:
    @pytest.mark.parametrize("rows", [1, 2, 7, 8, 9, 300])
    def test_one_reduction_matches_per_column_sums(self, rows):
        rng = np.random.default_rng(rows)
        for scale in (1.0, 1e-3, 1e6):
            matrix = rng.standard_normal((rows, 15)) * scale
            registry = MetricsRegistry()
            observe_feature_moments(registry, "V", matrix)
            assert registry.to_dict()["moments"] == per_column_moments(matrix)
