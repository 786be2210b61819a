"""The request → warm-pool multiplexer behind every serving endpoint.

One :class:`AnalysisGateway` owns one engine, one persistent
:class:`~repro.engine.stream.StreamingPool`, and exactly one dispatch
task driving :meth:`~repro.engine.stream.StreamingPool.astream` in
completion order.  Concurrent HTTP requests enqueue jobs; the dispatch
task feeds them to the pool and resolves each request's future as its
record settles.  This keeps the pool's single-dispatch-loop invariant
while serving any number of clients, and it is where the serving layer's
robustness promises are implemented:

* **deadlines** — each job carries an absolute deadline into the pool
  (degraded ``deadline`` records, admission slots released), and the
  awaiting request additionally gives up at the same deadline
  (:class:`DeadlineExpired` → 408) so a hung worker cannot hold a
  connection past its budget;
* **breaker feeding** — worker restarts observed at settle are the
  breaker's failure signal; clean computed settles are its success
  signal (cache hits and deadline-expired records prove nothing about
  pool health and feed neither);
* **graceful drain** — :meth:`drain` stops admissions, lets in-flight
  work settle within a drain budget, then *quarantines* what remains
  (typed ``drain``-stage quarantine records, never a hang) and shuts the
  warm pool down.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.engine.records import sha256_hex
from repro.obs.events import serve_event
from repro.obs.metrics import NULL_REGISTRY
from repro.resilience.quarantine import quarantine_record
from repro.serve.breaker import CircuitBreaker


class GatewayClosed(Exception):
    """The gateway is draining or closed; the request was not admitted."""


class DeadlineExpired(Exception):
    """The request's deadline passed before its record settled."""


@dataclass(slots=True)
class _Job:
    seq: int
    source_id: str
    data: bytes
    future: asyncio.Future
    deadline: float | None = None


@dataclass
class DrainReport:
    """What :meth:`AnalysisGateway.drain` accomplished."""

    settled: bool  # in-flight work finished within the drain budget
    abandoned: int = 0  # requests quarantined when the budget ran out
    errors: list[str] = field(default_factory=list)


class AnalysisGateway:
    """Multiplex concurrent requests onto one warm pool's astream loop."""

    def __init__(
        self,
        engine,
        *,
        jobs: int = 2,
        window: int | None = None,
        metrics=None,
        breaker: CircuitBreaker | None = None,
        drain_budget_s: float = 10.0,
    ) -> None:
        self.engine = engine
        self.jobs = max(2, int(jobs))  # the pool path is the serving path
        self.window = window
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(metrics=self.metrics)
        )
        if self.breaker.on_transition is None:
            self.breaker.on_transition = self._trace_breaker
        self.drain_budget_s = float(drain_budget_s)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._pending: dict[int, _Job] = {}
        self._seq = 0
        self._pool = None
        self._dispatch_task: asyncio.Task | None = None
        self._draining = False
        self._closed = False
        self._warm = False
        self._restarts_seen = 0

    # -- observability -------------------------------------------------

    def _trace_breaker(self, old: str, new: str) -> None:
        metrics = self.metrics
        if metrics.enabled and getattr(metrics, "trace", False):
            metrics.events.append(
                serve_event("gateway", "breaker", f"{old}->{new}")
            )

    @property
    def queue_depth(self) -> int:
        """Unresolved requests (queued + dispatched + settling)."""
        return len(self._pending)

    @property
    def warm(self) -> bool:
        return self._warm and not self._closed

    @property
    def draining(self) -> bool:
        return self._draining

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Spawn and warm the pool, then start the dispatch loop."""
        pool = self.engine._stream_pool(self.jobs, self.window)
        self._pool = pool
        self._restarts_seen = pool.worker_restarts
        await asyncio.to_thread(pool.warm_up, wait_ready=True)
        self._warm = True
        self._dispatch_task = asyncio.create_task(
            self._dispatch(), name="repro-serve-dispatch"
        )

    async def analyze(
        self, source_id: str, data: bytes, *, deadline_s: float | None = None
    ):
        """One document through the pool; returns its DocumentRecord.

        Raises :class:`GatewayClosed` before admission while draining and
        :class:`DeadlineExpired` when ``deadline_s`` passes first (the
        underlying work is bounded by the same deadline inside the pool,
        so its admission slot comes back regardless).
        """
        if self._draining or self._closed:
            raise GatewayClosed("gateway is draining")
        self._seq += 1
        job = _Job(
            self._seq,
            source_id,
            data,
            asyncio.get_running_loop().create_future(),
            time.monotonic() + deadline_s if deadline_s is not None else None,
        )
        self._pending[job.seq] = job
        if self.metrics.enabled:
            gauge = self.metrics.gauge("serve.queue_depth")
            if len(self._pending) > gauge.value:
                gauge.set(len(self._pending))
        self._queue.put_nowait(job)
        if deadline_s is None:
            return await job.future
        try:
            return await asyncio.wait_for(
                asyncio.shield(job.future), deadline_s
            )
        except asyncio.TimeoutError:
            # The pool-side deadline settles the job eventually (releasing
            # its window slot); this request just stops waiting for it.
            if self.metrics.enabled:
                self.metrics.counter("serve.deadline_expired").inc()
            raise DeadlineExpired(
                f"no result within {deadline_s:.3f}s"
            ) from None

    # -- the dispatch loop ---------------------------------------------

    async def _jobs(self):
        """The pool feed: queued jobs as tagged astream entries."""
        engine = self.engine
        while True:
            job = await self._queue.get()
            if job is None:  # drain sentinel: everything before it settles
                return
            if job.future.done():  # request already failed (drain teardown)
                self._pending.pop(job.seq, None)
                continue
            yield engine._stream_entry(
                job.seq, (job.source_id, job.data), job.deadline
            )

    async def _dispatch(self) -> None:
        pool = self._pool
        try:
            async for result in pool.astream(self._jobs(), ordered=False):
                self._note_pool_health(pool, result)
                self.engine._settle_stream_result(result)
                job = self._pending.pop(result.key, None)
                if job is not None and not job.future.done():
                    job.future.set_result(result.record)
        except Exception as error:
            # The dispatch loop must never die silently: every waiting
            # request gets the failure, and the server goes not-ready
            # (warm=False) so the orchestrator can restart it.
            self._warm = False
            for job in list(self._pending.values()):
                if not job.future.done():
                    job.future.set_exception(GatewayClosed(str(error)))
            self._pending.clear()
            raise

    def _note_pool_health(self, pool, result) -> None:
        """Feed the breaker from what this settle revealed."""
        restarts = pool.worker_restarts
        failures = restarts - self._restarts_seen
        self._restarts_seen = restarts
        for _ in range(failures):
            self.breaker.record_failure()
        if (
            not failures
            and result.computed
            and result.record.quarantine is None
            and not result.record.degraded
        ):
            self.breaker.record_success()

    # -- graceful drain ------------------------------------------------

    async def drain(self, budget_s: float | None = None) -> DrainReport:
        """Stop admitting, settle in-flight up to the budget, quarantine
        the rest, shut the pool down.  Idempotent."""
        if self._closed:
            return DrainReport(settled=True)
        budget = self.drain_budget_s if budget_s is None else float(budget_s)
        self._draining = True
        report = DrainReport(settled=True)
        if self._dispatch_task is not None:
            self._queue.put_nowait(None)  # settles everything queued first
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._dispatch_task), budget
                )
            except asyncio.TimeoutError:
                report.settled = False
                self._dispatch_task.cancel()
                try:
                    await self._dispatch_task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
            except Exception as error:  # noqa: BLE001 - dispatch crash
                report.settled = False
                report.errors.append(f"{type(error).__name__}: {error}")
        for job in list(self._pending.values()):
            if not job.future.done():
                report.abandoned += 1
                job.future.set_result(
                    quarantine_record(
                        job.source_id,
                        sha256_hex(job.data),
                        f"abandoned at graceful drain after {budget:g}s",
                        attempts=0,
                        stage="drain",
                    )
                )
        self._pending.clear()
        self._closed = True
        self._warm = False
        metrics = self.metrics
        if metrics.enabled:
            if report.abandoned:
                metrics.counter("serve.drain_abandoned").inc(report.abandoned)
            if getattr(metrics, "trace", False):
                metrics.events.append(
                    serve_event(
                        "gateway",
                        "drain",
                        f"settled={report.settled} abandoned={report.abandoned}",
                    )
                )
        await asyncio.to_thread(self.engine.close)
        return report
