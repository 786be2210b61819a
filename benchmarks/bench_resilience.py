"""Resilience cost — budgets must be near-free, recovery must be bounded.

Two promises from the resilience layer, held to numbers:

* **budgets at defaults** — the document path with :data:`DEFAULT_BUDGET`
  (cooperative wall clock + size/volume caps, no watchdog threads) must
  stay within 5% of the pre-resilience bare stage loop, kept below
  verbatim as the baseline, asserted on best-of-N rounds;
* **worker-crash recovery** — a batch carrying one poison document (chaos
  ``exit`` fault) must still return one record per input, and the
  recovery drill's wall clock, pool rebuilds, and retry counts are
  recorded for the artifact (rebuild cost is platform noise, so it is
  measured, not asserted).

The hard per-stage watchdog (``stage_timeout_s``) is measured too: it
spawns one thread per stage, so its overhead is reported alongside the
default-budget number rather than held to the 5% bar.

Environment knobs: ``REPRO_BENCH_RES_DOCS`` (default 24 documents),
``REPRO_BENCH_RES_ROUNDS`` (default 5).
"""

from __future__ import annotations

import os
import random
import time

from conftest import save_artifact

from repro.corpus.benign import generate_benign_module
from repro.corpus.documents import build_document_bytes
from repro.engine import AnalysisEngine
from repro.engine.records import DocumentRecord, sha256_hex
from repro.obs import MetricsRegistry
from repro.resilience import Budget, FaultPlan
from repro.resilience import recovery as recovery_module

N_DOCS = int(os.environ.get("REPRO_BENCH_RES_DOCS", "24"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_RES_ROUNDS", "5"))
MAX_BUDGET_OVERHEAD = 1.05  # default budget: < 5% over the bare stage loop


def build_documents(n_docs: int) -> list[tuple[str, bytes]]:
    rng = random.Random(4242)
    return [
        (
            f"doc_{index:03d}",
            build_document_bytes(
                [generate_benign_module(rng, target_length=rng.randint(400, 1500))],
                "docm",
            ),
        )
        for index in range(n_docs)
    ]


def _baseline_run(stages, item) -> DocumentRecord:
    """The pre-resilience document path: the bare stage loop."""
    source_id, data = item
    record = DocumentRecord(source_id=source_id, data=data, sha256=sha256_hex(data))
    for stage in stages:  # the bare pre-resilience fast path
        stage.process(record)
    record.data = None  # bytes are consumed; keep records IPC-light
    for macro in record.macros:
        macro.analysis = None
        macro.summary = None
    return record


def _best_of(rounds: int, run) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _engine(**kwargs) -> AnalysisEngine:
    # cache_size=0 so every timed round re-processes every document.
    return AnalysisEngine(feature_sets=("V",), cache_size=0, **kwargs)


def test_default_budget_is_near_free(benchmark):
    documents = build_documents(N_DOCS)
    # The baseline loop drives its own stage list, feature-row cache and all.
    bare_stages = _engine().stages
    budgeted = _engine()  # DEFAULT_BUDGET
    watchdog = _engine(budget=Budget(stage_timeout_s=10.0))

    _baseline_run(bare_stages, documents[0])  # warm lazy imports
    for engine in (budgeted, watchdog):
        engine.run(documents[0])

    baseline = _best_of(
        N_ROUNDS, lambda: [_baseline_run(bare_stages, doc) for doc in documents]
    )
    with_budget = _best_of(
        N_ROUNDS, lambda: [budgeted.run(doc) for doc in documents]
    )
    with_watchdog = _best_of(
        N_ROUNDS, lambda: [watchdog.run(doc) for doc in documents]
    )

    budget_overhead = with_budget / baseline
    watchdog_overhead = with_watchdog / baseline
    text = (
        "RESILIENCE OVERHEAD — document path, best of "
        f"{N_ROUNDS} rounds x {len(documents)} documents\n"
        f"bare stage loop    : {baseline:.3f} s"
        f"  ({len(documents) / baseline:.1f} docs/s)\n"
        f"default budget     : {with_budget:.3f} s"
        f"  ({budget_overhead:.3f}x baseline)\n"
        f"hard stage watchdog: {with_watchdog:.3f} s"
        f"  ({watchdog_overhead:.3f}x baseline)\n"
    )
    print("\n" + text)
    save_artifact("resilience_overhead.txt", text)

    assert budget_overhead < MAX_BUDGET_OVERHEAD, text

    benchmark.pedantic(
        lambda: [budgeted.run(doc) for doc in documents[:8]],
        iterations=1,
        rounds=3,
    )


def test_recovery_drill_cost(benchmark, monkeypatch):
    documents = build_documents(N_DOCS)
    poison_id = documents[N_DOCS // 2][0]
    sleeps: list[float] = []
    monkeypatch.setattr(recovery_module, "_sleep", sleeps.append)

    registry = MetricsRegistry()
    engine = AnalysisEngine.for_extraction(
        metrics=registry, chaos=FaultPlan.parse(f"exit:{poison_id}")
    )

    start = time.perf_counter()
    records = engine.run_batch(documents, jobs=2)
    elapsed = time.perf_counter() - start

    assert len(records) == len(documents)  # N in, N out under fire
    quarantined = [r for r in records if r.quarantine is not None]
    assert [r.source_id for r in quarantined] == [poison_id]

    counters = registry.to_dict()["counters"]
    text = (
        f"RECOVERY DRILL — {len(documents)} documents, jobs=2, one exit fault\n"
        f"wall clock        : {elapsed:.3f} s\n"
        f"pool failures     : {counters.get('resilience.pool_failures', 0)}\n"
        f"worker restarts   : {counters.get('stream.worker_restarts', 0)}\n"
        f"retries           : {counters.get('resilience.retries', 0)}\n"
        f"quarantined       : {counters.get('resilience.quarantined', 0)}\n"
        f"backoff requested : {sum(sleeps):.2f} s (skipped in the drill)\n"
    )
    print("\n" + text)
    save_artifact("resilience_recovery.txt", text)

    healthy = AnalysisEngine.for_extraction()
    benchmark.pedantic(
        lambda: healthy.run_batch(documents[:8], jobs=2),
        iterations=1,
        rounds=2,
    )
