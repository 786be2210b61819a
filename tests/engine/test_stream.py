"""The streaming warm-pool engine's contracts.

What must hold (and is exercised here against real worker processes):

* **ordering** — ``ordered=True`` yields input order even when an early
  document is slow; ``ordered=False`` yields completion order;
* **backpressure** — a large feed is consumed lazily and window occupancy
  (admitted minus yielded) never exceeds the window;
* **warm survivors** — a worker killed mid-stream is rebuilt alone; the
  other workers keep their pids and the pool object survives the call;
* **per-task blame** — a poison document in a long stream quarantines
  exactly itself, with zero bisection rounds;
* **parity** — ``run_batch(jobs=N)`` returns records identical (minus
  timings) to the serial path, in the same order.
"""

import asyncio
import itertools
import time

import pytest

from repro.corpus.documents import build_document_bytes
from repro.engine import AnalysisEngine
from repro.engine.records import DocumentRecord
from repro.engine.stages import Stage
from repro.obs import MetricsRegistry
from repro.resilience import DEFAULT_RETRY, Fault, FaultPlan, RetryPolicy
from repro.resilience import recovery as recovery_module


@pytest.fixture()
def recorded_sleeps(monkeypatch):
    delays = []
    monkeypatch.setattr(recovery_module, "_sleep", delays.append)
    return delays


def tiny_docs(count):
    """Unique non-container inputs: each is a cheap worker task (the
    extract stage refuses it immediately) with its own digest."""
    return [(f"doc_{i:05d}", b"not a document %d" % i) for i in range(count)]


class StallStage(Stage):
    """Sleep on matching documents — a pathological slow input."""

    name = "stall"

    def __init__(self, match: str, delay_s: float) -> None:
        self.match = match
        self.delay_s = delay_s

    def process(self, document: DocumentRecord) -> None:
        if self.match in document.source_id:
            time.sleep(self.delay_s)


class TestOrderingContract:
    def test_ordered_yield_survives_slow_head_of_line(self, document_factory):
        pairs = document_factory(8)
        slow_id = pairs[0][0]  # the very first admission stalls
        engine = AnalysisEngine.for_extraction()
        engine.stages.append(StallStage(slow_id, 0.5))
        records = list(engine.stream(pairs, jobs=2, ordered=True))
        assert [r.source_id for r in records] == [sid for sid, _ in pairs]
        assert all(r.ok for r in records)
        engine.close()

    def test_unordered_yields_out_of_order_completions_first(
        self, document_factory
    ):
        pairs = document_factory(8)
        slow_id = pairs[0][0]
        engine = AnalysisEngine.for_extraction()
        engine.stages.append(StallStage(slow_id, 0.75))
        records = list(engine.stream(pairs, jobs=2, ordered=False))
        assert {r.source_id for r in records} == {sid for sid, _ in pairs}
        # The stalled document cannot be the first completion.
        assert records[0].source_id != slow_id
        engine.close()

    def test_serial_stream_is_lazy_and_ordered(self, document_factory):
        pairs = document_factory(3)
        pulled = []

        def feed():
            for pair in pairs:
                pulled.append(pair[0])
                yield pair

        engine = AnalysisEngine.for_extraction()
        results = engine.stream(feed(), jobs=1)
        first = next(results)
        assert first.source_id == pairs[0][0]
        assert len(pulled) == 1  # nothing prefetched past the consumer
        assert [r.source_id for r in results] == [sid for sid, _ in pairs[1:]]


class TestBackpressure:
    def test_window_bounds_admission_over_large_feed(self):
        count, window = 10_000, 8
        docs = tiny_docs(count)
        pulled = 0

        def feed():
            nonlocal pulled
            for doc in docs:
                pulled += 1
                yield doc

        engine = AnalysisEngine.for_extraction()
        results = engine.stream(feed(), jobs=2, window=window, ordered=True)
        first = next(results)
        assert first.source_id == docs[0][0]
        # Backpressure: admission trails the consumer by at most the window.
        assert pulled <= 1 + window
        seen = 1 + sum(1 for _ in results)
        assert seen == count
        assert pulled == count
        pool = engine._pool
        assert pool.peak_in_flight <= window
        assert pool.peak_dispatched <= 2
        engine.close()

    def test_window_smaller_than_jobs_is_clamped(self, document_factory):
        pairs = document_factory(4)
        engine = AnalysisEngine.for_extraction()
        records = list(engine.stream(pairs, jobs=2, window=1))
        assert len(records) == len(pairs)
        assert engine._pool.window == 2
        engine.close()

    def test_duplicate_in_flight_documents_coalesce(self):
        data = b"PK\x03\x04 not really a zip"
        inputs = [("twin_a", data), ("twin_b", data)]
        engine = AnalysisEngine.for_extraction()
        records = list(engine.stream(inputs, jobs=2))
        assert [r.source_id for r in records] == ["twin_a", "twin_b"]
        assert records[0].sha256 == records[1].sha256
        assert engine._pool.tasks_completed == 1  # analyzed exactly once
        assert engine.cache_hits == 1
        engine.close()


class TestWarmPool:
    def test_pool_and_workers_persist_across_batches(self, document_factory):
        pairs = document_factory(6)
        engine = AnalysisEngine.for_extraction()
        engine.run_batch(pairs[:3], jobs=2)
        pool = engine._pool
        pids = pool.worker_pids()
        assert all(pid is not None for pid in pids)
        engine.run_batch(pairs[3:], jobs=2)
        assert engine._pool is pool  # same pool object, no rebuild
        assert pool.worker_pids() == pids  # same processes, still warm
        engine.close()
        assert engine._pool is None

    def test_close_waits_for_the_executors_to_shut_down(self, document_factory):
        # An interpreter exit right after close() must not race executors
        # still shutting down: the stdlib exit hook writes to their wakeup
        # pipes unlocked (an intermittent EBADF traceback at exit).
        engine = AnalysisEngine.for_extraction()
        engine.run_batch(document_factory(4), jobs=2)
        managers = [
            slot.executor._executor_manager_thread for slot in engine._pool._slots
        ]
        assert all(manager.is_alive() for manager in managers)
        engine.close()
        assert not any(manager.is_alive() for manager in managers)

    def test_worker_kill_mid_stream_keeps_survivors_warm(
        self, document_factory, recorded_sleeps
    ):
        pairs = document_factory(12)
        poison_id = pairs[10][0]
        engine = AnalysisEngine.for_extraction(
            chaos=FaultPlan.parse(f"exit:{poison_id}")
        )
        engine.retry = RetryPolicy(max_attempts=1)  # quarantine on first death
        # A clean warm-up batch; the poison (and one fresh innocent, so the
        # second batch still fans out to the pool) stays out of it.
        engine.run_batch(pairs[:10], jobs=2)
        pool = engine._pool
        before = pool.worker_pids()
        assert all(pid is not None for pid in before)

        records = engine.run_batch(pairs, jobs=2)
        assert len(records) == len(pairs)
        quarantined = [r for r in records if r.quarantine is not None]
        assert [r.source_id for r in quarantined] == [poison_id]

        assert engine._pool is pool  # no full-pool rebuild
        assert pool.worker_restarts == 1
        after = pool.worker_pids()
        # Exactly one slot was rebuilt; the survivor kept its process.
        survivors = [pid for pid in after if pid in before]
        assert len(survivors) == len(before) - 1
        engine.close()


class TestPerTaskBlame:
    def test_poison_in_long_stream_quarantines_exactly_itself(
        self, document_factory, recorded_sleeps
    ):
        pairs = document_factory(200)
        poison_id = pairs[111][0]
        registry = MetricsRegistry()
        engine = AnalysisEngine.for_extraction(
            metrics=registry, chaos=FaultPlan.parse(f"exit:{poison_id}")
        )
        records = engine.run_batch(pairs, jobs=2)
        assert len(records) == 200
        assert [r.source_id for r in records] == [sid for sid, _ in pairs]
        quarantined = [r for r in records if r.quarantine is not None]
        assert [r.source_id for r in quarantined] == [poison_id]
        assert quarantined[0].quarantine["attempts"] == DEFAULT_RETRY.max_attempts
        for record in records:
            if record.source_id != poison_id:
                assert record.ok and not record.degraded

        counters = registry.to_dict()["counters"]
        # Per-task dispatch: blame is structural, bisection never runs.
        assert counters.get("resilience.bisections", 0) == 0
        assert counters["resilience.quarantined"] == 1
        assert counters["resilience.retries"] == DEFAULT_RETRY.max_attempts - 1
        assert counters["stream.worker_restarts"] == DEFAULT_RETRY.max_attempts
        assert len(recorded_sleeps) == DEFAULT_RETRY.max_attempts - 1
        engine.close()


class TestSerialParity:
    def test_run_batch_records_match_serial_path(self, document_factory):
        pairs = document_factory(12)
        inputs = pairs + [pairs[2]]  # one duplicate -> one cached copy
        serial = AnalysisEngine.for_extraction().run_batch(inputs, jobs=1)
        engine = AnalysisEngine.for_extraction()
        streamed = engine.run_batch(inputs, jobs=2)
        assert len(serial) == len(streamed) == len(inputs)

        def shape(record):
            payload = record.to_dict()
            payload.pop("timings")
            return payload

        assert [shape(r) for r in serial] == [shape(r) for r in streamed]
        engine.close()


def big_docs(count, chars=200_000):
    """Documents whose records pickle far beyond the shm threshold."""
    pairs = []
    for index in range(count):
        lines = [f"Sub Big{index}()"]
        lines.extend(
            f'    v{index}_{line} = "padding {index} {line} {"x" * 64}"'
            for line in range(chars // 96)
        )
        lines.append("End Sub")
        source = "\n".join(lines) + "\n"
        pairs.append((f"big_{index:03d}", build_document_bytes([source], "docm")))
    return pairs


class TestSharedMemoryTransport:
    def test_large_records_ride_shared_memory_with_exact_parity(self):
        pairs = big_docs(4)
        serial = AnalysisEngine.for_extraction(
            metrics=MetricsRegistry(), budget=None
        ).run_batch(pairs)
        registry = MetricsRegistry()
        engine = AnalysisEngine.for_extraction(metrics=registry, budget=None)
        streamed = engine.run_batch(pairs, jobs=2)

        def shape(record):
            payload = record.to_dict()
            payload.pop("timings")
            return payload

        assert [shape(r) for r in serial] == [shape(r) for r in streamed]
        # The extracted module sources survive the segment round-trip.
        for record, reference in zip(streamed, serial):
            assert record.ok
            assert [m.source for m in record.macros] == [
                m.source for m in reference.macros
            ]
        counters = registry.to_dict()["counters"]
        assert counters["stream.shm_results"] == len(pairs)
        assert counters["stream.shm_bytes"] > len(pairs) * 64 * 1024
        assert counters.get("stream.shm_fallback", 0) == 0
        engine.close()

    def test_shm_threshold_zero_disables_transport(self):
        pairs = big_docs(2)
        registry = MetricsRegistry()
        engine = AnalysisEngine.for_extraction(metrics=registry, budget=None)
        engine.shm_threshold = 0
        records = engine.run_batch(pairs, jobs=2)
        assert all(record.ok for record in records)
        counters = registry.to_dict()["counters"]
        assert counters.get("stream.shm_results", 0) == 0
        engine.close()

    def test_segments_are_reclaimed_not_leaked(self):
        # Many large results through few workers: the per-worker segment
        # pool must recycle instead of growing one segment per task.
        pairs = big_docs(6, chars=120_000)
        registry = MetricsRegistry()
        engine = AnalysisEngine.for_extraction(metrics=registry, budget=None)
        records = engine.run_batch(pairs, jobs=2)
        assert all(record.ok for record in records)
        counters = registry.to_dict()["counters"]
        assert counters["stream.shm_results"] == len(pairs)
        pool = engine._pool
        names = set().union(*(slot.shm_names for slot in pool._slots))
        # 2 workers x a pooled segment (or two) each, not 6 fresh segments.
        assert len(names) <= 4
        engine.close()


class TestChaosUnderBackpressure:
    def test_hang_and_oversize_mix_keeps_window_and_totality(
        self, document_factory
    ):
        """ISSUE 6 satellite: a FaultPlan mixing a hanging document with an
        oversized one at ``--window 4`` must neither blow the admission
        window nor lose a record (N in, N out, in order)."""
        pairs = document_factory(12)
        hang_id, oversize_id = pairs[3][0], pairs[7][0]
        plan = FaultPlan(
            faults=(Fault("hang", hang_id), Fault("oversize", oversize_id)),
            hang_s=0.2,
            oversize_bytes=256 * 1024,  # also exercises the shm transport
        )
        engine = AnalysisEngine.for_extraction(chaos=plan)
        records = list(engine.stream(pairs, jobs=2, window=4, ordered=True))
        assert [r.source_id for r in records] == [sid for sid, _ in pairs]
        assert engine._pool.peak_in_flight <= 4
        oversized = next(r for r in records if r.source_id == oversize_id)
        assert any(len(m.source) >= 256 * 1024 for m in oversized.macros)
        for record in records:
            assert record.quarantine is None
        engine.close()


class TestFeatureCacheTelemetry:
    def test_worker_feature_cache_counters_merge(self, document_factory):
        pairs = document_factory(6)
        serial_engine = AnalysisEngine(
            feature_sets=("V", "J"), metrics=MetricsRegistry()
        )
        serial_engine.run_batch(pairs, jobs=1)
        parallel_engine = AnalysisEngine(
            feature_sets=("V", "J"), metrics=MetricsRegistry()
        )
        parallel_engine.run_batch(pairs, jobs=2)
        serial_info = serial_engine.cache_info()
        parallel_info = parallel_engine.cache_info()
        # Counters agree after the telemetry merge; sizes legitimately
        # differ (row contents never leave the worker processes).
        for key in ("feature_hits", "feature_misses", "feature_evictions"):
            assert serial_info[key] == parallel_info[key], key
        assert serial_info["feature_misses"] == len(pairs)
        parallel_engine.close()


class TestOrderedCoalescing:
    def test_duplicate_of_settled_unyielded_primary_is_not_reanalyzed(
        self, document_factory
    ):
        """A duplicate admitted after its primary settled, while that
        primary still waits in the reorder buffer behind a slower
        head-of-line result, is served from the primary: one analysis per
        content, as under ``run_batch``."""
        (_, short), (_, long), (_, twin) = document_factory(3)
        feed = [
            ("stall_short", short),
            ("stall_long", long),
            ("twin_1", twin),
            ("twin_2", twin),
        ]
        engine = AnalysisEngine.for_extraction()
        engine.stages.append(StallStage("short", 0.5))
        engine.stages.append(StallStage("long", 2.0))
        records = list(engine.stream(feed, jobs=3, window=3, ordered=True))
        assert [r.source_id for r in records] == [sid for sid, _ in feed]
        assert engine._pool.tasks_completed == 3
        notes = [d.message for d in records[3].diagnostics]
        assert "served from content-hash cache" in notes
        engine.close()


class TestSyncFaceLifecycle:
    def test_early_break_merges_telemetry_and_keeps_pool_warm(self):
        docs = tiny_docs(50)
        registry = MetricsRegistry()
        engine = AnalysisEngine.for_extraction(metrics=registry)
        results = engine.stream(docs, jobs=2, ordered=True)
        taken = list(itertools.islice(results, 3))
        results.close()
        assert [r.source_id for r in taken] == [sid for sid, _ in docs[:3]]
        pool = engine._pool
        assert not pool._streaming
        # Fewer tasks than a worker's flush interval: the worker spans
        # arrive only through the end-of-stream flush run at close.
        snapshot = registry.to_dict()
        assert snapshot["counters"]["stream.tasks"] >= 3
        assert snapshot["histograms"]["span.document"]["count"] >= 3
        pids = pool.worker_pids()
        assert all(pid is not None for pid in pids)

        records = engine.run_batch(docs[3:10], jobs=2)
        assert [r.source_id for r in records] == [sid for sid, _ in docs[3:10]]
        assert engine._pool is pool
        assert pool.worker_pids() == pids
        engine.close()

    def test_sync_face_inside_a_running_loop_points_at_astream(
        self, document_factory
    ):
        pairs = document_factory(4)
        engine = AnalysisEngine.for_extraction()

        async def scenario():
            return engine.run_batch(pairs, jobs=2)

        with pytest.raises(RuntimeError, match="astream"):
            asyncio.run(asyncio.wait_for(scenario(), 60))
        # Nothing was left half-streaming: the sync face still works.
        assert len(engine.run_batch(pairs, jobs=2)) == len(pairs)
        engine.close()
