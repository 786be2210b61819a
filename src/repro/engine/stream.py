"""The streaming warm-pool engine: persistent workers, per-task dispatch,
backpressure.

``run_batch(jobs=N)`` used to build a fresh ``ProcessPoolExecutor`` per
call and schedule work in barrier rounds: every call re-paid worker spawn
and import cost, and one slow document stalled its whole round.  A
:class:`StreamingPool` replaces both decisions for gateway-scale traffic:

* **persistent warm workers** — each worker is spawned once per pool
  lifetime, unpickles the engine exactly once in its initializer (which
  pre-imports numpy and the analysis stack and pre-builds the stage
  list), and then serves tasks for as long as the pool lives.  Repeated
  ``run_batch`` calls on the same engine reuse the same warm pool;
* **per-task dispatch** — documents are submitted one at a time as
  worker slots free up, and results are yielded as they complete.  There
  are no barrier rounds: a pathological document delays only the worker
  holding it;
* **backpressure** — the pool admits at most ``window`` documents beyond
  what the consumer has taken (in flight + awaiting dispatch + completed
  but unyielded), pulling from the input iterator lazily.  A 1M-document
  feed runs in ``O(window)`` memory;
* **an ordering contract** — ``ordered=True`` yields results in input
  order through a reorder buffer that is *inside* the window accounting
  (so a slow head-of-line document cannot balloon memory either);
  ``ordered=False`` yields in completion order for maximum throughput;
* **per-task blame** — every worker slot is its own single-process
  executor with exactly one task in flight, so a dead worker indicts
  exactly the task it was holding.  The bisection rounds of the old
  round-based recovery disappear: the blamed task is retried under the
  engine's :class:`~repro.resilience.recovery.RetryPolicy` (capped
  exponential backoff) and quarantined when retries are exhausted, while
  only the dead slot is rebuilt — surviving workers stay warm.

There is **one dispatch loop**, :meth:`StreamingPool.astream`: admission,
dispatch, settle, retry, quarantine and the reorder buffer live there
once.  :meth:`StreamingPool.stream` is its sync face — the same loop run
one result at a time on a private event loop — so ``run_batch``,
``AnalysisEngine.stream`` and the serving gateway share every deadline,
blame and coalescing rule.

Worker telemetry folds back **incrementally**: every
``telemetry_every``-th task a worker attaches a registry snapshot to its
result and resets, and a final flush at end of stream collects the
remainder — so a long-lived stream's parent registry trails the workers
by a bounded interval instead of an entire batch.

Each task is one document through ``engine._process``, so the
vectorized stages' micro-batch accumulators (featurize *and* classify)
flush once per streamed document: a 500-module attachment costs one
feature-matrix pass and one ``proba_from_matrix`` call inside its
worker.  Because those kernels are row-stable (:mod:`repro.ml.linalg`),
a macro scored through the stream is bit-identical to the same macro
scored serially or through the bare-source ``run_source`` path.

Large results skip the result pipe: a worker whose pickled record reaches
the engine's ``shm_threshold`` (default 64 KiB) writes the pickle into a
reused ``multiprocessing.shared_memory`` segment and returns only a tiny
descriptor (name, generation, length, digest); the parent maps the
segment, verifies the header and BLAKE2 digest, and unpickles straight
from shared memory — one copy instead of a chunked pipe write + read.
Segments are pooled per worker (a free list, reclaimed one task later,
when the parent has provably consumed the previous result) and a failed
segment allocation falls back to the ordinary pickle return.

Metrics: ``stream.in_flight`` / ``stream.queue_depth`` gauges track peak
window occupancy and reorder-buffer depth, ``stream.tasks`` /
``stream.worker_restarts`` count work and worker deaths,
``stream.tasks_per_sec`` records the last stream's throughput,
``stream.shm_results`` / ``stream.shm_bytes`` / ``stream.shm_fallback``
count shared-memory result traffic (``stream.shm_segment_bytes`` gauges
the last segment's size), and the ``resilience.pool_failures`` /
``resilience.retries`` / ``resilience.quarantined`` counters keep their
PR-4 meanings (with ``resilience.bisections`` now structurally zero).
"""

from __future__ import annotations

import asyncio
import atexit
import hashlib
import multiprocessing
import os
import pickle
import struct
import threading
import time
import weakref
from collections import deque
from collections.abc import AsyncIterator, Iterable, Iterator
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

from repro.engine.records import DocumentRecord
from repro.resilience import recovery as _recovery
from repro.resilience.quarantine import quarantine_record
from repro.resilience.recovery import DEFAULT_RETRY, RetryPolicy

#: Tasks a worker completes between incremental telemetry flushes.
DEFAULT_TELEMETRY_EVERY = 16

#: Seconds :meth:`StreamingPool.close` waits for its executors to shut down.
_CLOSE_JOIN_S = 2.0

#: Default backpressure window per worker when none is given.
_WINDOW_PER_JOB = 4

#: Pickled results at or above this many bytes ride shared memory when the
#: engine doesn't set its own ``shm_threshold``.
DEFAULT_SHM_THRESHOLD = 64 * 1024

#: Segment layout: ``<generation u64><payload length u64><digest><payload>``.
_SHM_HEADER = struct.Struct("<QQ")
_SHM_DIGEST_SIZE = 16
_SHM_PAYLOAD_OFFSET = _SHM_HEADER.size + _SHM_DIGEST_SIZE
#: Fresh segments round up to this size so steady-state traffic reuses a
#: handful of segments instead of allocating per result.
_SHM_MIN_SEGMENT = 256 * 1024
#: Idle segments a worker keeps pooled before unlinking the excess.
_SHM_MAX_FREE = 4


def _shm_unregister(segment: shared_memory.SharedMemory) -> None:
    """Keep the resource tracker out of segment lifetime.

    Ownership is explicit here — workers unlink their own segments (atexit
    at the latest) and the parent unlinks anything a dead worker left
    behind — so the per-process tracker would only add spurious
    leaked-object warnings and premature unlinks on worker death.
    """
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # tracking is best-effort bookkeeping, never fatal
        pass


@dataclass(frozen=True, slots=True)
class _ShmResult:
    """Descriptor for a record parked in a shared-memory segment."""

    name: str
    generation: int
    length: int
    digest: bytes


@dataclass(slots=True)
class StreamResult:
    """One completed stream entry: the record plus cache bookkeeping hints."""

    key: object
    record: DocumentRecord
    #: the record was computed by a worker this stream (cache-worthy)
    computed: bool
    #: the record is a copy of an identical in-flight document (a cache hit
    #: coalesced inside the window rather than served from the parent cache)
    coalesced: bool


class _Task:
    """One dispatched document plus its retry state and coalesced twins."""

    __slots__ = (
        "key",
        "source_id",
        "data",
        "digest",
        "attempt",
        "followers",
        "deadline",
        "record",
    )

    def __init__(
        self,
        key,
        source_id: str,
        data: bytes,
        digest: str,
        deadline: float | None = None,
    ) -> None:
        self.key = key
        self.source_id = source_id
        self.data = data
        self.digest = digest
        self.attempt = 0
        self.followers: list[tuple[object, str]] = []
        #: absolute ``time.monotonic()`` request deadline, or None
        self.deadline = deadline
        #: the settled record, kept for late twins until it is yielded
        self.record: DocumentRecord | None = None


def deadline_expired_record(source_id: str, digest: str) -> DocumentRecord:
    """A degraded record for a task whose deadline expired before dispatch."""
    record = DocumentRecord(source_id=source_id, sha256=digest)
    record.degrade(
        "deadline",
        "request deadline expired before dispatch; document was not analyzed",
    )
    return record


def deadline_limited(record: DocumentRecord) -> bool:
    """True when ``record`` was shaped by a per-request deadline.

    Such records must never enter the shared content cache: the same
    document under a patient caller could analyze fully.
    """
    return any(diag.stage == "deadline" for diag in record.diagnostics)


class _Slot:
    """One worker seat: a single-process executor we can rebuild alone."""

    __slots__ = ("index", "executor", "pid", "unflushed", "shm_names")

    def __init__(self, index: int, executor: ProcessPoolExecutor) -> None:
        self.index = index
        self.executor = executor
        self.pid: int | None = None
        #: tasks completed since the worker last shipped telemetry
        self.unflushed = 0
        #: shared-memory segment names this slot's worker has handed us —
        #: the parent unlinks them if the worker dies without cleaning up
        self.shm_names: set[str] = set()


class StreamingPool:
    """Warm workers that survive across calls, fed one task at a time.

    The pool holds only a *weak* reference to its engine (the engine owns
    the pool; a strong back-reference would keep both alive forever) plus
    a pickled snapshot taken at construction for worker initializers —
    stage configuration is therefore frozen at pool spawn.
    """

    def __init__(
        self,
        engine,
        jobs: int,
        *,
        window: int | None = None,
        retry: RetryPolicy | None = None,
        mp_context: str | None = None,
        telemetry_every: int = DEFAULT_TELEMETRY_EVERY,
        warm_start: bool = True,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.window = (
            int(window)
            if window is not None and window > 0
            else max(8, _WINDOW_PER_JOB * self.jobs)
        )
        if self.window < self.jobs:
            # A window smaller than the pool would idle paid-for workers.
            self.window = self.jobs
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.telemetry_every = max(0, int(telemetry_every))
        self._engine_ref = weakref.ref(engine)
        self._metrics = engine.metrics
        self._engine_pickle = pickle.dumps(engine)
        self._context = (
            multiprocessing.get_context(mp_context) if mp_context else None
        )
        self._closed = False
        self._close_lock = threading.Lock()
        self._streaming = False
        self.worker_restarts = 0
        self.peak_in_flight = 0  # peak window occupancy (admitted - yielded)
        self.peak_dispatched = 0  # peak tasks simultaneously on workers
        self.tasks_completed = 0
        self._slots = [self._new_slot(index) for index in range(self.jobs)]
        if warm_start:
            self.warm_up(wait_ready=False)

    # -- worker lifecycle ----------------------------------------------

    def _new_slot(self, index: int) -> _Slot:
        executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._context,
            initializer=_stream_worker_init,
            initargs=(
                self._engine_pickle,
                self.telemetry_every if self._metrics.enabled else 0,
            ),
        )
        return _Slot(index, executor)

    def warm_up(self, *, wait_ready: bool = True) -> list[int | None]:
        """Force worker processes up (and their imports paid) *now*.

        With ``wait_ready`` the call blocks until every worker has run its
        initializer and returns their pids; without it the spawns proceed
        in the background while the caller does other work.
        """
        futures = []
        for slot in self._slots:
            try:
                futures.append((slot, slot.executor.submit(_stream_warm)))
            except BrokenProcessPool:
                self._restart_slot(slot)
        if not wait_ready:
            return [slot.pid for slot in self._slots]
        for slot, future in futures:
            try:
                slot.pid = future.result()
            except BrokenProcessPool:
                self._restart_slot(slot)
        return [slot.pid for slot in self._slots]

    def _restart_slot(self, slot: _Slot) -> None:
        """Replace one dead worker; every other slot stays warm."""
        metrics = self._metrics
        span = None
        if metrics.enabled:
            metrics.counter("resilience.pool_failures").inc()
            metrics.counter("stream.worker_restarts").inc()
            span = metrics.span("pool.recover").start()
        slot.executor.shutdown(wait=False, cancel_futures=True)
        self._unlink_segments(slot)  # the dead worker can't clean up
        slot.executor = self._new_slot(slot.index).executor
        slot.pid = None
        slot.unflushed = 0  # whatever the dead worker held is gone
        self.worker_restarts += 1
        if span is not None:
            span.finish(outcome="error")

    @staticmethod
    def _unlink_segments(slot: _Slot) -> None:
        """Destroy every segment this slot's worker ever handed over.

        Live workers unlink their own segments (atexit at the latest), so
        a missing name here just means the worker beat us to it.
        """
        for name in slot.shm_names:
            try:
                segment = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, OSError):
                continue
            _shm_unregister(segment)
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        slot.shm_names.clear()

    def worker_pids(self) -> list[int | None]:
        """Last-known worker pid per slot (None before a slot's first task)."""
        return [slot.pid for slot in self._slots]

    def close(self) -> None:
        """Shut every worker down.  Idempotent; the pool is unusable after.

        Safe under concurrent callers: async shutdown closes from signal
        handlers and context managers simultaneously, so exactly one caller
        wins the flag under a lock and performs the teardown.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        managers = []
        for slot in self._slots:
            managers.append(getattr(slot.executor, "_executor_manager_thread", None))
            slot.executor.shutdown(wait=False, cancel_futures=True)
            self._unlink_segments(slot)
        # Let each executor finish shutting down, so an interpreter exit
        # right after close() does not race a half-closed executor (the
        # stdlib exit hook writes to its wakeup pipe unlocked).  Bounded: a
        # worker stuck in a task must not hold close() hostage.
        deadline = time.monotonic() + _CLOSE_JOIN_S
        for manager in managers:
            if manager is not None:
                manager.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "StreamingPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the dispatch loop ---------------------------------------------

    def stream(
        self, entries: Iterable[tuple], *, ordered: bool = False
    ) -> Iterator[StreamResult]:
        """The sync face of :meth:`astream`: the same loop, driven one
        result at a time on a private event loop.

        Every contract of :meth:`astream` holds unchanged — the consumer
        takes each result before the loop admits past it, so the window
        still bounds admission against what the caller has consumed.
        Closing the generator early closes the async loop (its telemetry
        flush included) and shuts the private event loop down.  Async
        code must use :meth:`astream`: this face blocks, so calling it
        from a running event loop raises ``RuntimeError``.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise RuntimeError(
                "StreamingPool.stream() blocks and cannot run inside a "
                "running event loop; use astream() from async code"
            )
        loop = asyncio.new_event_loop()
        results = self.astream(entries, ordered=ordered)
        try:
            while True:
                try:
                    result = loop.run_until_complete(anext(results))
                except StopAsyncIteration:
                    return
                yield result
        finally:
            try:
                loop.run_until_complete(results.aclose())
                # An early close cancels the outstanding feed pull; let
                # it finish before the loop goes away.
                leftovers = asyncio.all_tasks(loop)
                if leftovers:
                    loop.run_until_complete(asyncio.wait(leftovers))
            finally:
                loop.close()

    async def astream(
        self, entries, *, ordered: bool = False
    ) -> AsyncIterator[StreamResult]:
        """Drive tagged entries through the warm workers.

        ``entries`` is a sync or async iterable (consumed lazily, never
        materialized) of

        * ``("task", key, source_id, data, digest)`` — analyze ``data`` on
          a worker.  Entries sharing a ``digest`` with a task that is in
          flight, or settled but not yet yielded, are *coalesced*:
          analyzed once, the twins yielded as copies.  An optional sixth
          element is an absolute ``time.monotonic()`` deadline (or None):
          tasks still queued when it passes settle immediately as
          degraded deadline records (releasing their window slot), and
          dispatched tasks analyze under a budget clipped to the seconds
          remaining;
        * ``("ready", key, record)`` — a pre-completed record (a parent
          cache hit, a coercion error) that only needs ordering.

        Yields one :class:`StreamResult` per entry.  With ``ordered`` the
        results come back in entry order; otherwise in completion order.
        At most ``self.window`` entries are admitted beyond what has been
        yielded, which bounds the reorder buffer and the in-flight set
        alike.

        The loop never blocks on a worker: a finished worker future wakes
        it through ``call_soon_threadsafe``, and retry backoff runs in the
        default executor.  An async feed is pulled *concurrently* with
        settling (a live server feed may be idle while tasks are in
        flight, so blocking on the next entry would deadlock a request
        multiplexer); a sync feed is pulled in place.
        """
        self._begin_stream()
        engine = self._engine_ref()
        metrics = self._metrics
        loop = asyncio.get_running_loop()
        # A sync feed is pulled in place; an async one through a task, so
        # an idle live feed never blocks settling.
        source = entries.__aiter__() if hasattr(entries, "__aiter__") else None
        feed = iter(entries) if source is None else None
        exhausted = False
        fetch: asyncio.Task | None = None  # the one outstanding feed pull
        waiting: deque[_Task] = deque()
        inflight: dict[Future, tuple[_Slot, _Task]] = {}
        landed: deque[Future] = deque()  # finished worker futures, unsettled
        wake: asyncio.Future | None = None  # what step 5 parks on

        def rouse(_=None) -> None:
            if wake is not None and not wake.done():
                wake.set_result(None)

        def land(future: Future) -> None:
            landed.append(future)
            rouse()

        def on_done(future: Future) -> None:  # runs on the executor's thread
            try:
                loop.call_soon_threadsafe(land, future)
            except RuntimeError:  # this stream is over and its loop closed
                pass

        idle: list[_Slot] = list(self._slots)
        #: digest -> the task analyzing it, until its result is yielded
        primaries: dict[str, _Task] = {}
        buffer: dict[object, StreamResult] = {}
        expected: deque = deque()  # admitted keys in order (ordered mode)
        admitted = 0
        yielded = 0
        completed = 0
        started_at = time.perf_counter()

        in_flight_gauge = metrics.gauge("stream.in_flight")
        depth_gauge = metrics.gauge("stream.queue_depth")

        try:
            while True:
                # 1. Admit while the window has room (at most one async
                #    feed pull outstanding).
                while not exhausted and fetch is None and admitted - yielded < self.window:
                    if feed is None:
                        fetch = asyncio.ensure_future(anext(source))
                        fetch.add_done_callback(rouse)
                        break
                    entry = next(feed, None)
                    if entry is None:
                        exhausted = True
                        break
                    admitted += 1
                    self._admit_entry(entry, ordered, expected, buffer, primaries, waiting)

                # 2. Dispatch while workers are free (expired tasks settle
                #    in place instead of occupying a worker).
                now = time.monotonic()
                while waiting and idle:
                    task = waiting.popleft()
                    if task.deadline is not None and now >= task.deadline:
                        self._expire_task(task, buffer, primaries)
                        continue
                    slot = idle.pop()
                    future = self._submit(slot, task)
                    inflight[future] = (slot, task)
                    future.add_done_callback(on_done)

                occupancy = admitted - yielded
                if occupancy > self.peak_in_flight:
                    self.peak_in_flight = occupancy
                    in_flight_gauge.set(occupancy)
                if len(inflight) > self.peak_dispatched:
                    self.peak_dispatched = len(inflight)
                if len(buffer) > depth_gauge.value:
                    depth_gauge.set(len(buffer))

                # 3. Yield whatever the contract allows.
                progressed = False
                while True:
                    if ordered:
                        if not expected or expected[0] not in buffer:
                            break
                        result = buffer.pop(expected.popleft())
                    elif buffer:
                        result = buffer.pop(next(iter(buffer)))
                    else:
                        break
                    # The consumer caches a yielded record before the loop
                    # resumes, so later twins no longer need the primary.
                    if result.computed:
                        primary = primaries.get(result.record.sha256)
                        if primary is not None and primary.key == result.key:
                            del primaries[primary.digest]
                    yield result
                    yielded += 1
                    progressed = True
                if progressed:
                    continue  # freed window slots: admit before parking

                # 4. Done?
                if exhausted and fetch is None and not inflight and not waiting:
                    break

                # 5. Park until the feed produces, any worker finishes, or
                #    the nearest queued deadline expires.
                if not landed and not (fetch is not None and fetch.done()):
                    timeout = self._nearest_deadline(waiting)
                    if timeout is None and not inflight and fetch is None:
                        timeout = 0.01  # nothing else could wake the loop
                    wake = loop.create_future()
                    timer = None if timeout is None else loop.call_later(timeout, rouse)
                    try:
                        await wake
                    finally:
                        wake = None
                        if timer is not None:
                            timer.cancel()
                if fetch is not None and fetch.done():
                    try:
                        entry = fetch.result()
                    except StopAsyncIteration:
                        exhausted = True
                    else:
                        admitted += 1
                        self._admit_entry(
                            entry, ordered, expected, buffer, primaries, waiting
                        )
                    fetch = None
                while landed:
                    future = landed.popleft()
                    slot, task = inflight.pop(future)
                    step, delay = self._settle_future(
                        engine, slot, task, future, idle, waiting, buffer, primaries
                    )
                    completed += step
                    if delay is not None:
                        # Backoff before the retry runs, parked on a thread
                        # so the loop stays responsive; tests monkeypatch
                        # recovery._sleep.
                        await loop.run_in_executor(None, _recovery._sleep, delay)
                # Sliding windows / drift monitors advance from the settle
                # loop too, not only on telemetry flushes — both time-gate
                # internally, so this is a few attribute checks per wake-up.
                if engine is not None:
                    engine._observability_tick()
        finally:
            self._streaming = False
            if fetch is not None:
                fetch.cancel()
            for future in inflight:
                future.cancel()  # tasks not yet on a worker; running ones finish
            if engine is not None and metrics.enabled:
                await self._flush_telemetry(engine)
                elapsed = time.perf_counter() - started_at
                if completed and elapsed > 0.0:
                    metrics.gauge("stream.tasks_per_sec").set(
                        round(completed / elapsed, 3)
                    )

    # -- dispatch-loop pieces ------------------------------------------

    def _begin_stream(self) -> None:
        if self._closed:
            raise RuntimeError("cannot stream on a closed StreamingPool")
        if self._streaming:
            raise RuntimeError(
                "StreamingPool is already streaming; one dispatch loop per "
                "pool — multiplex requests onto it instead"
            )
        self._streaming = True

    def _admit_entry(
        self,
        entry: tuple,
        ordered: bool,
        expected: deque,
        buffer: dict,
        primaries: dict,
        waiting: deque,
    ) -> None:
        """Fold one tagged feed entry into the dispatch state."""
        kind = entry[0]
        if ordered:
            expected.append(entry[1])
        if kind == "ready":
            _, key, record = entry
            buffer[key] = StreamResult(key, record, False, False)
            return
        _, key, source_id, data, digest, *rest = entry
        deadline = rest[0] if rest else None
        primary = primaries.get(digest)
        if primary is not None:
            if primary.record is None:
                primary.followers.append((key, source_id))
            else:  # settled, waiting behind a slower head-of-line result
                buffer[key] = StreamResult(
                    key, _twin(primary.record, source_id), False, True
                )
            return
        task = _Task(key, source_id, data, digest, deadline)
        primaries[digest] = task
        waiting.append(task)

    def _expire_task(self, task: _Task, buffer: dict, primaries: dict) -> None:
        """Settle a task whose deadline passed while it queued for a slot.

        The task (and its coalesced followers) yield degraded deadline
        records, releasing their window slots — expired requests must not
        leak admission capacity.  Nothing is cached: ``computed`` stays
        False and the record carries the ``deadline`` marker.
        """
        metrics = self._metrics
        if metrics.enabled:
            metrics.counter("stream.deadline_expired").inc(1 + len(task.followers))
        record = deadline_expired_record(task.source_id, task.digest)
        primaries.pop(task.digest, None)
        buffer[task.key] = StreamResult(task.key, record, False, False)
        for key, source_id in task.followers:
            buffer[key] = StreamResult(key, _twin(record, source_id), False, False)

    @staticmethod
    def _nearest_deadline(waiting: deque) -> float | None:
        """Seconds until the earliest queued deadline, or None."""
        nearest = None
        for task in waiting:
            if task.deadline is not None and (
                nearest is None or task.deadline < nearest
            ):
                nearest = task.deadline
        if nearest is None:
            return None
        return max(0.0, nearest - time.monotonic())

    def _settle_future(
        self,
        engine,
        slot: _Slot,
        task: _Task,
        future: Future,
        idle: list,
        waiting: deque,
        buffer: dict,
        primaries: dict,
    ) -> tuple[int, float | None]:
        """Settle one completed worker future.

        Returns ``(completed_delta, retry_delay)``.  A non-None delay
        means the task was requeued for retry and the caller owes it a
        backoff sleep.
        """
        metrics = self._metrics
        try:
            payload = future.result()
        except BrokenProcessPool:
            # One task per worker: the dead pool indicts exactly this
            # task.  Rebuild only this slot.
            self._restart_slot(slot)
            idle.append(slot)
            error = BrokenProcessPool(
                "worker died mid-task; per-task dispatch "
                "attributes the failure to this document"
            )
            return 0, self._settle_failure(task, error, waiting, buffer, primaries)
        except Exception as error:
            # Attributable failure (e.g. an unpicklable result): the
            # worker survived, only the task pays.
            idle.append(slot)
            return 0, self._settle_failure(task, error, waiting, buffer, primaries)
        idle.append(slot)
        raw, pid, telemetry = payload
        slot.pid = pid
        slot.unflushed += 1
        if telemetry is not None:
            slot.unflushed = 0
            if engine is not None:
                engine._merge_worker_telemetry(telemetry)
        try:
            record = (
                self._materialize(slot, raw) if isinstance(raw, _ShmResult) else raw
            )
        except Exception as error:
            # A corrupt/vanished segment indicts only this task; the
            # worker recomputes it on retry.
            return 0, self._settle_failure(task, error, waiting, buffer, primaries)
        self.tasks_completed += 1
        if metrics.enabled:
            metrics.counter("stream.tasks").inc()
        self._settle_success(task, record, buffer, primaries)
        return 1, None

    def _materialize(self, slot: _Slot, descriptor: _ShmResult) -> DocumentRecord:
        """Decode one record out of a worker's shared-memory segment.

        Called during settle, while the slot is out of the idle list — the
        worker cannot start another task (and so cannot reclaim or rewrite
        this segment) until we return.  The generation/length header and
        the BLAKE2 payload digest guard against ever decoding a stale or
        torn write; any mismatch raises, which routes the task through the
        ordinary retry path.
        """
        segment = shared_memory.SharedMemory(name=descriptor.name)
        _shm_unregister(segment)
        slot.shm_names.add(descriptor.name)
        try:
            generation, length = _SHM_HEADER.unpack_from(segment.buf, 0)
            if (
                generation != descriptor.generation
                or length != descriptor.length
            ):
                raise RuntimeError(
                    f"shared-memory segment {descriptor.name} header "
                    f"(generation {generation}, length {length}) does not "
                    f"match its descriptor (generation "
                    f"{descriptor.generation}, length {descriptor.length})"
                )
            payload = segment.buf[_SHM_PAYLOAD_OFFSET : _SHM_PAYLOAD_OFFSET + length]
            try:
                digest = hashlib.blake2b(
                    payload, digest_size=_SHM_DIGEST_SIZE
                ).digest()
                if digest != descriptor.digest:
                    raise RuntimeError(
                        f"shared-memory segment {descriptor.name} payload "
                        "failed its digest check"
                    )
                record = pickle.loads(payload)
            finally:
                payload.release()
            metrics = self._metrics
            if metrics.enabled:
                metrics.counter("stream.shm_results").inc()
                metrics.counter("stream.shm_bytes").inc(length)
                metrics.gauge("stream.shm_segment_bytes").set(segment.size)
            return record
        finally:
            segment.close()

    def _submit(self, slot: _Slot, task: _Task) -> Future:
        """Submit one task to one slot, reviving the slot if it died idle."""
        remaining = None
        if task.deadline is not None:
            remaining = max(0.001, task.deadline - time.monotonic())
        for attempt in (0, 1):
            try:
                return slot.executor.submit(
                    _stream_task,
                    task.key,
                    task.source_id,
                    task.data,
                    task.digest,
                    remaining,
                )
            except (BrokenProcessPool, RuntimeError):
                if attempt:
                    raise
                self._restart_slot(slot)
        raise AssertionError("unreachable")

    def _settle_success(
        self,
        task: _Task,
        record: DocumentRecord,
        buffer: dict,
        primaries: dict,
    ) -> None:
        """Buffer the record and its twins' copies.

        A record the consumer will cache stays findable in ``primaries``
        until it is yielded, so a twin admitted meanwhile is served from
        it instead of being analyzed again.  Quarantine and deadline
        records are never cached, and later twins must not inherit them.
        """
        buffer[task.key] = StreamResult(task.key, record, True, False)
        for key, source_id in task.followers:
            buffer[key] = StreamResult(key, _twin(record, source_id), False, True)
        task.followers.clear()
        if record.quarantine is None and not deadline_limited(record):
            task.record = record
        else:
            primaries.pop(task.digest, None)

    def _settle_failure(
        self,
        task: _Task,
        error: BaseException,
        waiting: deque,
        buffer: dict,
        primaries: dict,
    ) -> float | None:
        """Per-task blame: retry with capped backoff, then quarantine.

        Returns the backoff delay the caller owes before the retry runs
        (the task is already requeued), or None when the task was
        quarantined instead.
        """
        metrics = self._metrics
        attempts = task.attempt + 1
        if attempts < self.retry.max_attempts:
            if metrics.enabled:
                metrics.counter("resilience.retries").inc()
            delay = self.retry.backoff(task.attempt)
            task.attempt = attempts
            waiting.appendleft(task)  # retries outrank fresh admissions
            return delay
        reason = (
            f"{type(error).__name__}: {error}"
            if str(error)
            else type(error).__name__
        )
        record = quarantine_record(
            task.source_id, task.digest, reason, attempts=attempts, stage="pool"
        )
        if metrics.enabled:
            metrics.counter("resilience.quarantined").inc()
            metrics.span("quarantine", doc=task.digest).start().finish(
                outcome="error"
            )
        self._settle_success(task, record, buffer, primaries)
        return None

    async def _flush_telemetry(self, engine) -> None:
        """Collect what the workers recorded since their last flush."""
        pending: dict[asyncio.Future, _Slot] = {}
        for slot in self._slots:
            if slot.unflushed <= 0:
                continue
            try:
                future = slot.executor.submit(_stream_flush)
            except (BrokenProcessPool, RuntimeError):
                continue  # the worker (and its unsent telemetry) is gone
            pending[asyncio.wrap_future(future)] = slot
        if not pending:
            return
        done, _ = await asyncio.wait(pending, timeout=60)
        for future, slot in pending.items():
            if future not in done or future.cancelled():
                future.cancel()
                continue
            if future.exception() is not None:
                continue
            slot.unflushed = 0
            engine._merge_worker_telemetry(future.result())


def _twin(record: DocumentRecord, source_id: str) -> DocumentRecord:
    """A coalesced duplicate's copy of ``record``, as the cache serves it."""
    from repro.engine.core import AnalysisEngine

    return AnalysisEngine._cached_copy(record, source_id)


# ----------------------------------------------------------------------
# Worker-side entry points.  The engine is unpickled exactly once per
# worker process (pre-importing numpy and the analysis stack, pre-building
# the stage list); tasks then carry only (key, source_id, data, digest).

_WORKER_STATE: dict = {}


def _stream_worker_init(engine_pickle: bytes, telemetry_every: int) -> None:
    engine = pickle.loads(engine_pickle)
    _WORKER_STATE["engine"] = engine
    _WORKER_STATE["telemetry_every"] = telemetry_every
    _WORKER_STATE["since_flush"] = 0
    threshold = getattr(engine, "shm_threshold", None)
    if threshold is None:
        threshold = DEFAULT_SHM_THRESHOLD
    elif threshold <= 0:
        threshold = None  # shm transport disabled for this engine
    _WORKER_STATE["shm_threshold"] = threshold
    _WORKER_STATE["shm_free"] = []  # segments ready for reuse
    _WORKER_STATE["shm_busy"] = []  # handed to the parent, reclaim next task
    _WORKER_STATE["shm_generation"] = 0
    atexit.register(_shm_worker_cleanup)


def _shm_worker_cleanup() -> None:
    """Worker exit: destroy every segment this process still owns."""
    for segment in _WORKER_STATE.get("shm_free", []) + _WORKER_STATE.get(
        "shm_busy", []
    ):
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass  # the parent unlinks leftovers on slot teardown


def _shm_reclaim() -> None:
    """Called at task start: segments handed over with the *previous*
    result are consumable again — the parent settled that result before
    dispatching this task to this worker (one task in flight per slot)."""
    state = _WORKER_STATE
    busy = state["shm_busy"]
    if not busy:
        return
    free = state["shm_free"]
    free.extend(busy)
    busy.clear()
    while len(free) > _SHM_MAX_FREE:
        segment = free.pop(0)
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def _shm_export(payload: bytes) -> _ShmResult | None:
    """Park one pickled record in a (pooled) segment; None = fall back."""
    state = _WORKER_STATE
    needed = _SHM_PAYLOAD_OFFSET + len(payload)
    free = state["shm_free"]
    segment = None
    for index, candidate in enumerate(free):
        if candidate.size >= needed:
            segment = free.pop(index)
            break
    if segment is None:
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=max(needed, _SHM_MIN_SEGMENT)
            )
        except OSError:  # /dev/shm exhausted or unavailable
            engine = state["engine"]
            if engine.metrics.enabled:
                engine.metrics.counter("stream.shm_fallback").inc()
            return None
        _shm_unregister(segment)
    state["shm_generation"] += 1
    generation = state["shm_generation"]
    digest = hashlib.blake2b(payload, digest_size=_SHM_DIGEST_SIZE).digest()
    _SHM_HEADER.pack_into(segment.buf, 0, generation, len(payload))
    segment.buf[_SHM_HEADER.size : _SHM_PAYLOAD_OFFSET] = digest
    segment.buf[_SHM_PAYLOAD_OFFSET : _SHM_PAYLOAD_OFFSET + len(payload)] = payload
    state["shm_busy"].append(segment)
    return _ShmResult(segment.name, generation, len(payload), digest)


def _shm_maybe_export(record: DocumentRecord):
    """The record itself, or a :class:`_ShmResult` descriptor for it.

    A cheap lower-bound size screen (macro sources + document variables)
    skips the extra pickle pass for the typical small record; only
    plausibly-large records pay ``pickle.dumps`` to learn their exact
    size.
    """
    threshold = _WORKER_STATE["shm_threshold"]
    if threshold is None:
        return record
    approx = sum(len(macro.source) for macro in record.macros) + sum(
        len(key) + len(value)
        for key, value in record.document_variables.items()
    )
    if approx < threshold // 4:
        return record
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) < threshold:
        return record
    descriptor = _shm_export(payload)
    return descriptor if descriptor is not None else record


def _stream_warm() -> int:
    """A no-op task that forces the worker (and its imports) up."""
    return os.getpid()


def _telemetry_snapshot(engine) -> dict:
    """The worker → parent telemetry delta; resets the worker's registry."""
    snapshot = {
        "metrics": engine.metrics.to_dict() if engine.metrics.enabled else None,
        "cache": engine.cache_info(),
    }
    engine.metrics = engine.metrics.spawn()
    engine.cache_hits = 0
    engine.cache_misses = 0
    engine.cache_evictions = 0
    feature_cache = getattr(engine, "_feature_cache", None)
    if feature_cache is not None:
        feature_cache.hits = 0
        feature_cache.misses = 0
        feature_cache.evictions = 0
    return snapshot


def _stream_task(
    key,
    source_id: str,
    data: bytes,
    digest: str,
    deadline_s: float | None = None,
):
    """One document through the warm engine; telemetry rides along
    every ``telemetry_every`` tasks.

    ``deadline_s`` is the request deadline remaining at dispatch: the
    document analyzes under the engine budget clipped to it (which also
    arms the per-stage watchdog), and a record it degrades is marked with
    a ``deadline`` diagnostic so the parent never caches it.
    """
    engine = _WORKER_STATE["engine"]
    _shm_reclaim()
    record = engine._process(source_id, data, digest, deadline_s)
    telemetry = None
    every = _WORKER_STATE["telemetry_every"]
    if every:
        _WORKER_STATE["since_flush"] += 1
        if _WORKER_STATE["since_flush"] >= every:
            _WORKER_STATE["since_flush"] = 0
            telemetry = _telemetry_snapshot(engine)
    return _shm_maybe_export(record), os.getpid(), telemetry


def _stream_flush() -> dict:
    """Explicit end-of-stream telemetry flush."""
    _WORKER_STATE["since_flush"] = 0
    return _telemetry_snapshot(_WORKER_STATE["engine"])
