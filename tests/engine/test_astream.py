"""The asyncio face of the streaming engine (``astream``).

``astream`` must be the same machine as ``stream`` — same ordering
contracts, same admission window, same per-task blame and quarantine —
just driven from an event loop.  These tests hold it to that, plus the
serving-grade extras that ride on it:

* **chaos under backpressure** — the hang + oversize + worker-kill mix
  at ``window=4`` keeps N-in/N-out, never exceeds the window, and the
  surviving worker keeps its process;
* **deadline propagation** — a request deadline shorter than the stage
  timeout wins (degraded record, fast), and expired deadlines release
  their admission slots (100 pre-expired requests leak no capacity);
* **close() discipline** — double-close and concurrent close are safe.
"""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import AnalysisEngine
from repro.engine.records import sha256_hex
from repro.engine.stream import deadline_limited
from repro.obs import MetricsRegistry
from repro.resilience import Fault, FaultPlan, RetryPolicy
from repro.resilience import recovery as recovery_module


@pytest.fixture()
def recorded_sleeps(monkeypatch):
    delays = []
    monkeypatch.setattr(recovery_module, "_sleep", delays.append)
    return delays


def tiny_docs(count):
    """Unique non-container inputs: cheap worker tasks with own digests."""
    return [(f"doc_{i:05d}", b"not a document %d" % i) for i in range(count)]


def run_async(coro, timeout_s=120.0):
    """Drive one coroutine to completion; fail loudly instead of hanging."""
    async def guarded():
        return await asyncio.wait_for(coro, timeout_s)

    return asyncio.run(guarded())


async def collect(aiterator):
    return [item async for item in aiterator]


class TestAsyncOrderingContract:
    def test_ordered_astream_matches_input_order(self, document_factory):
        pairs = document_factory(8)

        async def scenario():
            engine = AnalysisEngine.for_extraction()
            try:
                records = await collect(
                    engine.astream(pairs, jobs=2, window=4, ordered=True)
                )
            finally:
                engine.close()
            return records

        records = run_async(scenario())
        assert [r.source_id for r in records] == [sid for sid, _ in pairs]
        assert all(r.quarantine is None for r in records)

    def test_completion_order_with_async_feed_and_coalescing(
        self, document_factory
    ):
        # One unique document duplicated 7 times through an *async* feed:
        # every input yields a record and the duplicates coalesce.
        sid, data = document_factory(1)[0]
        pairs = [(f"{sid}_{i}", data) for i in range(8)]

        async def feed():
            for item in pairs:
                await asyncio.sleep(0)  # a live (non-list) async source
                yield item

        async def scenario():
            engine = AnalysisEngine.for_extraction()
            try:
                records = await collect(
                    engine.astream(feed(), jobs=2, ordered=False)
                )
            finally:
                engine.close()
            return records, engine.cache_hits

        records, cache_hits = run_async(scenario())
        assert sorted(r.source_id for r in records) == sorted(
            sid for sid, _ in pairs
        )
        assert cache_hits >= len(pairs) - 1  # coalesced + cached copies

    def test_serial_astream_matches_run(self, document_factory):
        pairs = document_factory(3)

        async def scenario():
            engine = AnalysisEngine.for_extraction()
            return await collect(engine.astream(pairs, jobs=1))

        records = run_async(scenario())
        assert [r.source_id for r in records] == [sid for sid, _ in pairs]


class TestAsyncChaosUnderBackpressure:
    def test_hang_oversize_and_worker_kill_at_window_4(
        self, document_factory, recorded_sleeps
    ):
        """The stream chaos drill, on the async gateway path: a hanging
        document, an oversized one, and a worker-killing one in the same
        ``window=4`` feed must keep N-in/N-out and the window bound, and
        the surviving worker keeps its process."""
        pairs = document_factory(12)
        hang_id, oversize_id, poison_id = pairs[3][0], pairs[7][0], pairs[9][0]
        plan = FaultPlan(
            faults=(
                Fault("hang", hang_id),
                Fault("oversize", oversize_id),
                Fault("exit", poison_id),
            ),
            hang_s=0.2,
            oversize_bytes=256 * 1024,  # a 256 KB record over the result pipe
        )
        engine = AnalysisEngine.for_extraction(chaos=plan)
        engine.retry = RetryPolicy(max_attempts=1)  # one kill, one restart

        async def scenario():
            pool = engine._stream_pool(2, 4)
            await asyncio.to_thread(pool.warm_up)
            before = pool.worker_pids()
            assert all(pid is not None for pid in before)
            records = await collect(
                engine.astream(pairs, jobs=2, window=4, ordered=True)
            )
            return pool, before, records

        pool, before, records = run_async(scenario())
        try:
            assert [r.source_id for r in records] == [sid for sid, _ in pairs]
            assert pool.peak_in_flight <= 4
            quarantined = [r for r in records if r.quarantine is not None]
            assert [r.source_id for r in quarantined] == [poison_id]
            oversized = next(r for r in records if r.source_id == oversize_id)
            assert any(len(m.source) >= 256 * 1024 for m in oversized.macros)
            hung = next(r for r in records if r.source_id == hang_id)
            assert hung.quarantine is None
            assert pool.worker_restarts == 1
            after = pool.worker_pids()
            survivors = [pid for pid in after if pid in before]
            assert len(survivors) == len(before) - 1
        finally:
            engine.close()

    def test_retry_backoff_still_goes_through_recovery_sleep(
        self, document_factory, recorded_sleeps
    ):
        pairs = document_factory(6)
        poison_id = pairs[2][0]
        engine = AnalysisEngine.for_extraction(
            chaos=FaultPlan.parse(f"exit:{poison_id}")
        )
        engine.retry = RetryPolicy(max_attempts=2, backoff_base_s=0.05)

        async def scenario():
            return await collect(
                engine.astream(pairs, jobs=2, ordered=False)
            )

        records = run_async(scenario())
        try:
            assert len(records) == len(pairs)
            quarantined = [r for r in records if r.quarantine is not None]
            assert [r.source_id for r in quarantined] == [poison_id]
            assert quarantined[0].quarantine["attempts"] == 2
            # The async path must honor the same (monkeypatchable) backoff
            # hook as the sync path: one retry → one recorded sleep.
            assert len(recorded_sleeps) == 1
        finally:
            engine.close()


class TestDeadlinePropagation:
    def test_request_deadline_beats_stage_timeout(self, document_factory):
        """A request deadline shorter than ``--stage-timeout`` must win:
        the hanging stage is abandoned at the deadline, the record comes
        back degraded with a ``deadline`` marker, well before either the
        hang or the stage watchdog would have fired."""
        pairs = document_factory(4)
        hang_id = pairs[1][0]
        plan = FaultPlan(faults=(Fault("hang", hang_id),), hang_s=20.0)
        from repro.resilience import Budget

        engine = AnalysisEngine.for_extraction(chaos=plan)
        engine.budget = Budget(
            wall_clock_s=60.0,
            stage_timeout_s=30.0,  # the deadline must undercut this
            max_input_bytes=None,
            max_macro_count=None,
            max_output_bytes=None,
        )

        async def scenario():
            started = time.monotonic()
            records = await collect(
                engine.astream(pairs, jobs=2, ordered=True, deadline_s=1.0)
            )
            return records, time.monotonic() - started

        records, elapsed = run_async(scenario())
        try:
            assert len(records) == len(pairs)
            assert elapsed < 10.0  # nowhere near hang_s or stage_timeout_s
            hung = next(r for r in records if r.source_id == hang_id)
            assert hung.degraded
            assert deadline_limited(hung)
            for record in records:
                if record.source_id != hang_id:
                    assert not record.degraded
        finally:
            engine.close()

    def test_expired_deadlines_release_admission_slots(self):
        """100 requests whose deadlines already passed must all yield
        typed deadline records without dispatching — and must leak zero
        window capacity: a normal stream through the same pool afterwards
        completes (a leak would deadlock the 4-slot window)."""
        expired = tiny_docs(100)
        fresh = tiny_docs(8)
        registry = MetricsRegistry()
        engine = AnalysisEngine.for_extraction(metrics=registry)

        async def scenario():
            pool = engine._stream_pool(2, 4)
            past = time.monotonic() - 1.0

            async def expired_entries():
                for sid, data in expired:
                    yield ("task", sid, sid, data, sha256_hex(data), past)

            first = [
                r async for r in pool.astream(expired_entries(), ordered=False)
            ]

            async def fresh_entries():
                for sid, data in fresh:
                    yield ("task", f"fresh_{sid}", sid, data, sha256_hex(data))

            second = [
                r async for r in pool.astream(fresh_entries(), ordered=True)
            ]
            return pool, first, second

        pool, first, second = run_async(scenario(), timeout_s=60.0)
        try:
            assert len(first) == len(expired)
            for result in first:
                assert not result.computed
                assert result.record.degraded
                assert deadline_limited(result.record)
            # None of the expired tasks reached a worker.
            assert pool.tasks_completed == len(fresh)
            assert len(second) == len(fresh)
            counters = registry.to_dict()["counters"]
            assert counters["stream.deadline_expired"] == len(expired)
        finally:
            engine.close()

    def test_deadline_expired_records_never_poison_the_cache(self):
        sid, data = tiny_docs(1)[0]
        engine = AnalysisEngine.for_extraction()

        async def scenario():
            pool = engine._stream_pool(2, None)
            past = time.monotonic() - 1.0

            async def entries():
                yield ("task", 0, sid, data, sha256_hex(data), past)

            results = [r async for r in pool.astream(entries(), ordered=True)]
            return results

        results = run_async(scenario())
        try:
            assert deadline_limited(results[0].record)
            # The degraded deadline record must not be served from cache
            # to a later request with a live deadline.
            engine._settle_stream_result(results[0])
            assert engine._cache_get(sha256_hex(data)) is None
        finally:
            engine.close()


class TestCloseDiscipline:
    def test_double_close_is_idempotent(self, document_factory):
        pairs = document_factory(4)
        engine = AnalysisEngine.for_extraction()
        engine.run_batch(pairs, jobs=2)
        engine.close()
        assert engine._pool is None
        engine.close()  # second close: no-op, no error
        assert engine._pool is None

    def test_concurrent_close_races_are_safe(self, document_factory):
        pairs = document_factory(4)
        engine = AnalysisEngine.for_extraction()
        engine.run_batch(pairs, jobs=2)
        pool = engine._pool
        barrier = threading.Barrier(8)
        errors = []

        def slam():
            barrier.wait()
            try:
                engine.close()
            except Exception as error:  # noqa: BLE001 - the assertion
                errors.append(error)

        with ThreadPoolExecutor(max_workers=8) as executor:
            list(executor.map(lambda _: slam(), range(8)))
        assert errors == []
        assert engine._pool is None
        assert pool._closed

    def test_pool_close_race_is_single_teardown(self, document_factory):
        pairs = document_factory(3)
        engine = AnalysisEngine.for_extraction()
        engine.run_batch(pairs, jobs=2)
        pool = engine._pool
        barrier = threading.Barrier(6)
        errors = []

        def slam():
            barrier.wait()
            try:
                pool.close()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=slam) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert pool._closed
        engine.close()

    def test_astream_on_closed_pool_raises(self, document_factory):
        pairs = document_factory(2)
        engine = AnalysisEngine.for_extraction()
        pool = engine._stream_pool(2, None)
        pool.close()

        async def scenario():
            async def entries():
                for sid, data in pairs:
                    yield ("task", sid, sid, data, sha256_hex(data))

            async for _ in pool.astream(entries()):
                pass

        with pytest.raises(RuntimeError, match="closed"):
            run_async(scenario())
        engine.close()
