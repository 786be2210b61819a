"""The streaming warm pool: persistent workers, per-task dispatch,
backpressure.

A :class:`StreamingPool` runs documents through ``engine._process`` in
worker processes:

* **persistent warm workers** — each worker is spawned once per pool
  lifetime, unpickles the engine exactly once (which pre-imports numpy
  and the analysis stack and pre-builds the stage list), and then serves
  tasks for as long as the pool lives.  Repeated ``run_batch`` calls on
  the same engine reuse the same warm pool;
* **per-task dispatch** — documents are sent one at a time as workers
  free up, and results are yielded as they complete, so a pathological
  document delays only the worker holding it;
* **backpressure** — the pool admits at most ``window`` documents beyond
  what the consumer has taken (in flight + awaiting dispatch + completed
  but unyielded), pulling from the input iterator lazily.  A 1M-document
  feed runs in ``O(window)`` memory;
* **an ordering contract** — ``ordered=True`` yields results in input
  order through a reorder buffer that is *inside* the window accounting
  (so a slow head-of-line document cannot balloon memory either);
  ``ordered=False`` yields in completion order for maximum throughput;
* **per-task blame** — every worker holds at most one task, so a dead
  worker indicts exactly the task it was holding: the task is retried
  under the engine's :class:`~repro.resilience.recovery.RetryPolicy`
  (capped exponential backoff) and quarantined when retries are
  exhausted, while only the dead slot is rebuilt — surviving workers
  stay warm.

There is **one dispatch loop**, :meth:`StreamingPool.astream`: admission,
dispatch, settle, retry, quarantine and the reorder buffer live there
once.  :meth:`StreamingPool.stream` is its sync face — the same loop run
one result at a time on a private event loop — so ``run_batch``,
``AnalysisEngine.stream`` and the serving gateway share every deadline,
blame and coalescing rule.

There is one transport as well: each worker owns one duplex pipe.  The
parent writes a pickled task to it and the worker writes back one
pickled ``(kind, value, telemetry)`` reply — a record, an exception, or
a telemetry flush — whatever the record's size.  The dispatch loop
watches every pipe and every worker's process sentinel with
``loop.add_reader``, so a result or a worker death wakes it directly: no
executor, no manager or feeder thread.  Every ``_TELEMETRY_EVERY``-th
task a worker attaches a registry snapshot as ``telemetry`` and resets,
and a final flush at end of stream collects the remainder — so a
long-lived stream's parent registry trails the workers by a bounded
interval instead of an entire batch.

Each task is one document, so the vectorized stages' micro-batch
accumulators (featurize *and* classify) flush once per streamed
document: a 500-module attachment costs one feature-matrix pass and one
``proba_from_matrix`` call inside its worker.  Because those kernels are
row-stable (:mod:`repro.ml.linalg`), a macro scored through the stream
is bit-identical to the same macro scored serially or through the
bare-source ``run_source`` path.

Metrics: ``stream.in_flight`` / ``stream.queue_depth`` gauges track peak
window occupancy and reorder-buffer depth, ``stream.tasks`` /
``stream.worker_restarts`` count work and worker deaths,
``stream.tasks_per_sec`` records the last stream's throughput, and the
``resilience.pool_failures`` / ``resilience.retries`` /
``resilience.quarantined`` counters count dead workers, retries and
quarantined documents.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pickle
import threading
import time
import weakref
from collections import deque
from collections.abc import AsyncIterator, Iterable, Iterator
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready

from repro.engine.records import DocumentRecord
from repro.resilience import recovery as _recovery
from repro.resilience.quarantine import quarantine_record
from repro.resilience.recovery import DEFAULT_RETRY, RetryPolicy

#: Tasks a worker completes between incremental telemetry flushes.
_TELEMETRY_EVERY = 16

#: Seconds :meth:`StreamingPool.close` waits for its workers to exit.
_CLOSE_JOIN_S = 2.0

#: Seconds the end-of-stream telemetry flush waits for busy workers.
_FLUSH_WAIT_S = 60.0

#: Default backpressure window per worker when none is given.
_WINDOW_PER_JOB = 4

#: Requests other than a task, pickled once.
_FLUSH = pickle.dumps("flush")
_EXIT = pickle.dumps(None)


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
    """One worker seat: a worker process and the duplex pipe that feeds
    it, rebuilt alone when the worker dies.

    The worker answers every request with exactly one reply, in order,
    so ``owed`` (requests sent minus replies read) says whether it is
    idle.  A fresh worker owes one reply — the ``ready`` it sends once
    its engine is loaded — so nothing is dispatched to it before then.
    """

    __slots__ = ("index", "process", "pid", "conn", "task", "owed", "unflushed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.pid: int | None = None
        self.conn = None
        #: the task the worker holds, or None (idle, or its stream ended)
        self.task: _Task | None = None
        self.owed = 0
        #: tasks completed since the worker last shipped telemetry
        self.unflushed = 0


class StreamingPool:
    """Warm workers that survive across calls, fed one task at a time
    over one duplex pipe each.

    The pool holds only a *weak* reference to its engine (the engine owns
    the pool; a strong back-reference would keep both alive forever) plus
    a pickled snapshot taken at construction for the workers — stage
    configuration is therefore frozen at pool spawn.  Workers start with
    the pool, under ``mp_context`` (the platform default when None), and
    are daemonic, so none outlives the interpreter.
    """

    def __init__(
        self,
        engine,
        jobs: int,
        *,
        window: int | None = None,
        retry: RetryPolicy | None = None,
        mp_context: str | None = None,
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
        self._engine_ref = weakref.ref(engine)
        self._metrics = engine.metrics
        self._engine_pickle = pickle.dumps(engine)
        self._context = multiprocessing.get_context(mp_context)
        self._closed = False
        self._close_lock = threading.Lock()
        self._streaming = False
        self.worker_restarts = 0
        self.peak_in_flight = 0  # peak window occupancy (admitted - yielded)
        self.peak_dispatched = 0  # peak tasks simultaneously on workers
        self.tasks_completed = 0
        self._slots = [_Slot(index) for index in range(self.jobs)]
        for slot in self._slots:
            self._spawn(slot)

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        """Start a fresh worker in ``slot``; it owes its ``ready`` reply."""
        conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_stream_worker,
            args=(
                child_conn,
                self._engine_pickle,
                _TELEMETRY_EVERY if self._metrics.enabled else 0,
            ),
            name=f"repro-stream-{slot.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process, slot.pid, slot.conn = process, process.pid, conn
        slot.task = None
        slot.owed = 1
        slot.unflushed = 0

    def warm_up(self) -> list[int]:
        """Block until every worker has loaded its engine; return the pids.

        A worker that dies on the way is replaced and not waited for.  Not
        for use while a stream runs.
        """
        engine = self._engine_ref()
        for slot in self._slots:
            while slot.owed:
                _wait_ready([slot.conn, slot.process.sentinel])
                message = _receive(slot, False)
                if message is None:
                    self._restart_slot(slot)
                    break
                slot.owed -= 1
                self._take_reply(engine, slot, message)
        return self.worker_pids()

    def _restart_slot(self, slot: _Slot) -> None:
        """Replace one dead worker; every other slot stays warm."""
        metrics = self._metrics
        span = None
        if metrics.enabled:
            metrics.counter("resilience.pool_failures").inc()
            metrics.counter("stream.worker_restarts").inc()
            span = metrics.span("pool.recover").start()
        _stop_worker(slot, 0.0)
        self._spawn(slot)  # whatever the dead worker held is gone
        self.worker_restarts += 1
        if span is not None:
            span.finish(outcome="error")

    def worker_pids(self) -> list[int]:
        """The current (after close, the last) worker pid per slot."""
        return [slot.pid for slot in self._slots]

    def close(self) -> None:
        """Shut every worker down.  Idempotent; the pool is unusable after.

        Each worker is asked to exit and joined within ``_CLOSE_JOIN_S``
        in all; one still alive then (stuck in a task) is terminated, and
        killed if it ignores that, so no worker outlives its pool.  Safe
        under concurrent callers: async shutdown closes from signal
        handlers and context managers simultaneously, so exactly one
        caller wins the flag under a lock and performs the teardown.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for slot in self._slots:
            try:
                slot.conn.send_bytes(_EXIT)
            except OSError:
                pass  # already gone
        deadline = time.monotonic() + _CLOSE_JOIN_S
        for slot in self._slots:
            _stop_worker(slot, max(0.0, deadline - time.monotonic()))

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

        The loop never blocks on a worker: each worker's pipe and process
        sentinel are registered with ``loop.add_reader``, so a reply or a
        death wakes it, and retry backoff runs in the default executor
        (the blamed task is requeued once it has elapsed).  A worker found
        dead while idle is replaced without blaming any document.  The
        pipe reads and writes themselves do block the loop, for as long
        as a message takes to cross (see :meth:`_send_task`).  An async
        feed is pulled *concurrently* with settling (a live server feed
        may be idle while tasks are in flight, so blocking on the next
        entry would deadlock a request multiplexer); a sync feed is
        pulled in place.
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
        #: (slot, the worker it had, its reply or None for a death, the
        #: task that reply settles), unsettled
        landed: deque[tuple[_Slot, object, bytes | None, _Task | None]] = deque()
        watched: dict[_Slot, tuple[int, int]] = {}  # slot -> registered fds
        flushing: set[_Slot] = set()  # slots owing an end-of-stream flush
        wake: asyncio.Future | None = None  # what park() waits on

        def rouse(_=None) -> None:
            if wake is not None and not wake.done():
                wake.set_result(None)

        def on_ready(slot: _Slot, process, from_pipe: bool) -> None:
            nonlocal dispatched
            if slot.process is not process:
                return  # a replaced worker's late wake-up
            message = _receive(slot, from_pipe)
            if message is None:
                unwatch(slot)  # a dead worker's fds stay readable
                landed.append((slot, process, None, None))
                rouse()
                return
            # Replies come one per request, in order, and a slot holding a
            # task owes nothing else: this reply is that task's.
            task, slot.task = slot.task, None
            slot.owed -= 1
            if task is not None:
                dispatched -= 1
            landed.append((slot, process, message, task))
            if not slot.owed:
                idle.append(slot)
            rouse()

        def watch(slot: _Slot) -> None:
            fds = (slot.conn.fileno(), slot.process.sentinel)
            loop.add_reader(fds[0], on_ready, slot, slot.process, True)
            loop.add_reader(fds[1], on_ready, slot, slot.process, False)
            watched[slot] = fds

        def unwatch(slot: _Slot) -> None:
            for fd in watched.pop(slot, ()):
                loop.remove_reader(fd)

        def replace(slot: _Slot) -> None:
            unwatch(slot)
            if self._closed:  # closed under a running stream
                raise RuntimeError("StreamingPool was closed mid-stream")
            self._restart_slot(slot)
            watch(slot)

        async def park(timeout: float | None) -> None:
            nonlocal wake
            wake = loop.create_future()
            timer = None if timeout is None else loop.call_later(timeout, rouse)
            try:
                await wake
            finally:
                wake = None
                if timer is not None:
                    timer.cancel()

        async def settle() -> None:
            """Book every landed reply and death."""
            nonlocal completed, dispatched
            while landed:
                slot, process, message, task = landed.popleft()
                if slot.process is not process:
                    continue  # its worker was replaced meanwhile
                delay = None
                if message is None:
                    task = slot.task
                    if slot in idle:
                        idle.remove(slot)
                    flushing.discard(slot)
                    replace(slot)  # the fresh worker joins ``idle`` when ready
                    if task is not None:
                        dispatched -= 1
                        # One task per worker: the death indicts exactly
                        # this task.
                        error = BrokenProcessPool(
                            "worker died mid-task; per-task dispatch "
                            "attributes the failure to this document"
                        )
                        delay = self._settle_failure(task, error, buffer, primaries)
                else:
                    kind, value = self._take_reply(engine, slot, message)
                    if kind == "flush":
                        flushing.discard(slot)
                    if task is not None:
                        if kind == "done":
                            completed += 1
                            self.tasks_completed += 1
                            if metrics.enabled:
                                metrics.counter("stream.tasks").inc()
                            self._settle_success(task, value, buffer, primaries)
                        else:
                            # Attributable failure (e.g. an unpicklable
                            # record): the worker survived, only the task
                            # pays.
                            delay = self._settle_failure(task, value, buffer, primaries)
                if delay is not None:
                    # Backoff before the retry is queued, parked on a thread
                    # so the loop stays responsive; tests monkeypatch
                    # recovery._sleep.
                    await loop.run_in_executor(None, _recovery._sleep, delay)
                    waiting.appendleft(task)  # retries outrank fresh admissions

        idle: list[_Slot] = [slot for slot in self._slots if not slot.owed]
        #: digest -> the task analyzing it, until its result is yielded
        primaries: dict[str, _Task] = {}
        buffer: dict[object, StreamResult] = {}
        expected: deque = deque()  # admitted keys in order (ordered mode)
        admitted = 0
        yielded = 0
        completed = 0
        dispatched = 0  # tasks on workers now
        started_at = time.perf_counter()

        in_flight_gauge = metrics.gauge("stream.in_flight")
        depth_gauge = metrics.gauge("stream.queue_depth")

        try:
            for slot in self._slots:
                watch(slot)
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
                    if self._send_task(slot, task):
                        dispatched += 1
                    else:
                        # It died while idle: no document to blame.
                        waiting.appendleft(task)
                        replace(slot)

                occupancy = admitted - yielded
                if occupancy > self.peak_in_flight:
                    self.peak_in_flight = occupancy
                    in_flight_gauge.set(occupancy)
                if dispatched > self.peak_dispatched:
                    self.peak_dispatched = dispatched
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
                if (
                    exhausted
                    and fetch is None
                    and not dispatched
                    and not waiting
                    and not landed
                ):
                    break

                # 5. Park until the feed produces, any worker replies or
                #    dies, or the nearest queued deadline expires.
                if not landed and not (fetch is not None and fetch.done()):
                    await park(self._nearest_deadline(waiting))
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
                await settle()
                # Sliding windows / drift monitors advance from the settle
                # loop too, not only on telemetry flushes — both time-gate
                # internally, so this is a few attribute checks per wake-up.
                if engine is not None:
                    engine._observability_tick()
        finally:
            try:
                if fetch is not None:
                    fetch.cancel()
                waiting.clear()  # nothing more is dispatched
                for slot in self._slots:
                    slot.task = None  # abandoned: its late reply is dropped
                if engine is not None and metrics.enabled and not self._closed:
                    # Collect what the workers recorded since their last
                    # flush.  A busy worker answers after its task.
                    for slot in self._slots:
                        if slot.unflushed > 0 and slot in watched:
                            if self._send(slot, _FLUSH):
                                flushing.add(slot)
                    until = loop.time() + _FLUSH_WAIT_S
                    while flushing and loop.time() < until:
                        if not landed:
                            await park(until - loop.time())
                        await settle()
                    elapsed = time.perf_counter() - started_at
                    if completed and elapsed > 0.0:
                        metrics.gauge("stream.tasks_per_sec").set(
                            round(completed / elapsed, 3)
                        )
            finally:
                for slot in list(watched):
                    unwatch(slot)
                self._streaming = False

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

    @staticmethod
    def _send(slot: _Slot, request: bytes) -> bool:
        """Write one request to a live worker; False when it is gone."""
        if not slot.process.is_alive():
            return False
        try:
            slot.conn.send_bytes(request)
        except OSError:
            return False
        slot.owed += 1
        return True

    def _send_task(self, slot: _Slot, task: _Task) -> bool:
        """Hand one task to an idle worker; False when it died idle.

        The write blocks the calling thread (the event loop, under
        :meth:`astream`) until the whole document is in the pipe, which
        takes as long as the worker needs to drain it: an 8 MB upload
        holds the loop for some 20–50 ms on a 2-CPU VM.
        """
        remaining = None
        if task.deadline is not None:
            remaining = max(0.001, task.deadline - time.monotonic())
        request = pickle.dumps(
            (task.source_id, task.data, task.digest, remaining),
            pickle.HIGHEST_PROTOCOL,
        )
        if not self._send(slot, request):
            return False
        slot.task = task
        return True

    @staticmethod
    def _take_reply(engine, slot: _Slot, message: bytes) -> tuple:
        """Unpack one worker reply into ``(kind, value)``, merging any
        telemetry riding along into ``engine``."""
        kind, value, telemetry = pickle.loads(message)
        if kind == "done" or kind == "error":
            slot.unflushed += 1
        if telemetry is not None:
            slot.unflushed = 0
            if engine is not None:
                engine._merge_worker_telemetry(telemetry)
        return kind, value

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
        buffer: dict,
        primaries: dict,
    ) -> float | None:
        """Per-task blame: retry with capped backoff, then quarantine.

        Returns the backoff delay after which the caller requeues the
        task for its retry, or None when the task was quarantined instead.
        """
        metrics = self._metrics
        attempts = task.attempt + 1
        if attempts < self.retry.max_attempts:
            if metrics.enabled:
                metrics.counter("resilience.retries").inc()
            delay = self.retry.backoff(task.attempt)
            task.attempt = attempts
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


def _twin(record: DocumentRecord, source_id: str) -> DocumentRecord:
    """A coalesced duplicate's copy of ``record``, as the cache serves it."""
    from repro.engine.core import AnalysisEngine

    return AnalysisEngine._cached_copy(record, source_id)


def _receive(slot: _Slot, from_pipe: bool) -> bytes | None:
    """The reply waiting on ``slot``'s pipe, or None when its worker is gone.

    Call only once the pipe (``from_pipe``) or the process sentinel is
    ready: a ready sentinel with nothing on the pipe means the worker
    exited.  A reply is read whole, so a large record blocks the calling
    thread — the event loop, under :meth:`StreamingPool.astream` — until
    its last byte arrives: about 4 ms for a record of 2 MB of macro
    source on a 2-CPU VM.
    """
    try:
        if from_pipe or slot.conn.poll():
            return slot.conn.recv_bytes()
    except (EOFError, OSError):
        pass
    return None


def _stop_worker(slot: _Slot, grace: float) -> None:
    """Reap ``slot``'s worker: wait ``grace`` seconds for it to exit, then
    terminate it, then kill it; close its pipe either way."""
    process = slot.process
    process.join(grace)
    if process.exitcode is None:
        process.terminate()
        process.join(1.0)
    if process.exitcode is None:
        process.kill()
        process.join()
    slot.conn.close()
    process.close()


# ----------------------------------------------------------------------
# The worker side.  The engine is unpickled exactly once per worker
# process (pre-importing numpy and the analysis stack, pre-building the
# stage list); tasks then carry only (source_id, data, digest, deadline).


def _stream_worker(conn, engine_pickle: bytes, telemetry_every: int) -> None:
    """A worker's whole life: load the engine, say ``ready``, then answer
    each request with one ``(kind, value, telemetry)`` reply until told to
    exit.

    A task is ``(source_id, data, digest, deadline_s)``: one document
    through the warm engine, its record sent back as ``done`` (or the
    exception as ``error``), with telemetry riding along every
    ``telemetry_every`` tasks.  ``deadline_s`` is the request deadline
    remaining at dispatch: the document analyzes under the engine budget
    clipped to it (which also arms the per-stage watchdog), and a record
    it degrades is marked with a ``deadline`` diagnostic so the parent
    never caches it.  ``"flush"`` asks for the telemetry now; ``None``
    ends the loop.

    An idle worker waits on its pipe together with the parent's sentinel
    and exits when the parent is gone: under ``fork`` it also holds the
    parent's end of its own pipe, so a killed parent never shows as EOF.
    A request already waiting skips that wait, so a busy worker pays one
    ``poll`` per task.
    """
    engine = pickle.loads(engine_pickle)
    parent = multiprocessing.parent_process().sentinel
    since_flush = 0
    _reply(conn, "ready", None, None)
    while True:
        if not conn.poll() and conn not in _wait_ready([conn, parent]):
            return  # the parent died
        try:
            request = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        if request is None:
            return
        if request == "flush":
            since_flush = 0
            _reply(conn, "flush", None, _telemetry_snapshot(engine))
            continue
        try:
            kind, value = "done", engine._process(*request)
        except Exception as error:  # noqa: BLE001 - the task pays, not the worker
            kind, value = "error", error
        telemetry = None
        if telemetry_every:
            since_flush += 1
            if since_flush >= telemetry_every:
                since_flush = 0
                telemetry = _telemetry_snapshot(engine)
        _reply(conn, kind, value, telemetry)


def _reply(conn, kind: str, value, telemetry) -> None:
    """Send one reply; a value that will not pickle becomes an ``error``."""
    try:
        payload = pickle.dumps((kind, value, telemetry), pickle.HIGHEST_PROTOCOL)
    except Exception as error:  # noqa: BLE001 - e.g. an unpicklable record
        payload = pickle.dumps(("error", error, telemetry))
    conn.send_bytes(payload)


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
