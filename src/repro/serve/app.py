"""The serving application: routes, overload policy, and lifecycle.

:class:`ServeApp` wires the layers together into one process:

``HttpServer`` → :meth:`ServeApp.handle` → admission control → circuit
breaker → :class:`~repro.serve.gateway.AnalysisGateway` → warm pool.

The request path is a strict gauntlet — cheapest refusal first, and a
request that clears every gate is *guaranteed* a typed terminal
response:

1. **draining?** → 503 ``draining`` (SIGTERM already arrived);
2. **admission** (rate limit / client window / queue depth) → typed 429
   or 503 with ``Retry-After``;
3. **circuit breaker** → 503 ``breaker_open`` while the worker pool is
   known to be collapsing (half-open probes pass through);
4. **deadline** → the request's budget rides into the pool, and expiry
   is a 408 whose admission-window slot is provably released;
5. **analysis** → one NDJSON line per document (archives expand to one
   line per member, flushed in completion order).

``/healthz`` is liveness (the process answers), ``/readyz`` is the
serving contract: pool warm **∧** not draining **∧** breaker closed
**∧** queue below the shed line.  ``/metrics`` serves the Prometheus
exposition from the same process and registry the gateway writes to.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import dataclass

from repro.engine.records import sha256_hex
from repro.obs.events import serve_event
from repro.obs.export import CONTENT_TYPE, scrape
from repro.obs.metrics import NULL_REGISTRY
from repro.resilience.archive import (
    ArchiveBombError,
    expand_archive,
    is_plain_archive,
    is_tar_archive,
)
from repro.serve.admission import AdmissionController
from repro.serve.breaker import HALF_OPEN, CircuitBreaker
from repro.serve.gateway import AnalysisGateway, DeadlineExpired, GatewayClosed
from repro.serve.http import (
    DEFAULT_MAX_BODY_BYTES,
    KEEPALIVE_IDLE_S,
    MAX_REQUESTS_PER_CONNECTION,
    HttpError,
    HttpServer,
    Request,
    Response,
    StreamingResponse,
    json_response,
)

ENDPOINTS = ("scan", "lint", "extract")

#: Refusal codes that are deliberate overload policy, not failures —
#: they stay out of the ``serve.errors.*`` SLO numerator.
_POLICY_CODES = frozenset(
    {
        "rate_limited",
        "client_saturated",
        "queue_full",
        "breaker_open",
        "draining",
        "deadline_expired",
    }
)

#: Refusals decided before admission.  They never enter the
#: ``serve.latency.*`` histograms: the SLO grades *admitted* requests,
#: and a sub-millisecond 429/503 would dilute the p95 it is meant to
#: protect (a 408, by contrast, was admitted and held capacity for its
#: whole deadline — that sample belongs in the histogram).
_PRE_ADMISSION_CODES = frozenset(
    {
        "draining",
        "empty_body",
        "bad_deadline",
        "rate_limited",
        "client_saturated",
        "queue_full",
        "breaker_open",
    }
)


@dataclass(slots=True)
class ServeConfig:
    """Every serving knob in one place (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0
    jobs: int = 2
    window: int | None = None
    max_queue: int = 64
    per_client_window: int = 8
    rate_per_s: float = 50.0
    burst: float = 100.0
    default_deadline_s: float | None = 30.0
    max_deadline_s: float = 120.0
    drain_budget_s: float = 10.0
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    read_timeout_s: float = 30.0
    keepalive_idle_s: float = KEEPALIVE_IDLE_S
    max_requests_per_connection: int = MAX_REQUESTS_PER_CONNECTION
    breaker_threshold: int = 3
    breaker_window_s: float = 30.0
    breaker_cooloff_s: float = 5.0


def render_record(endpoint: str, record) -> dict:
    """Project one DocumentRecord into the endpoint's response shape."""
    payload = record.to_dict()
    if endpoint == "lint":
        for macro in payload["macros"]:
            for key in ("score", "verdict"):
                macro.pop(key, None)
    elif endpoint == "extract":
        for macro in payload["macros"]:
            for key in (
                "score",
                "verdict",
                "findings",
                "recovered_strings",
                "recovery",
            ):
                macro.pop(key, None)
    return payload


class ServeApp:
    """One engine, one gateway, one HTTP front — the ``repro serve`` app."""

    def __init__(
        self,
        engine,
        config: ServeConfig | None = None,
        *,
        metrics=None,
        window=None,
    ) -> None:
        self.config = config or ServeConfig()
        self.engine = engine
        self.metrics = (
            metrics
            if metrics is not None
            else (engine.metrics if engine.metrics.enabled else NULL_REGISTRY)
        )
        #: optional SlidingWindow feeding the /metrics window gauges
        self.obs_window = window
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            window_s=self.config.breaker_window_s,
            cooloff_s=self.config.breaker_cooloff_s,
            metrics=self.metrics,
        )
        self.gateway = AnalysisGateway(
            engine,
            jobs=self.config.jobs,
            window=self.config.window,
            metrics=self.metrics,
            breaker=self.breaker,
            drain_budget_s=self.config.drain_budget_s,
        )
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            per_client_window=self.config.per_client_window,
            rate_per_s=self.config.rate_per_s,
            burst=self.config.burst,
            metrics=self.metrics,
        )
        self.http = HttpServer(
            self.handle,
            host=self.config.host,
            port=self.config.port,
            max_body_bytes=self.config.max_body_bytes,
            read_timeout_s=self.config.read_timeout_s,
            keepalive_idle_s=self.config.keepalive_idle_s,
            max_requests_per_connection=self.config.max_requests_per_connection,
            on_connection=self._on_connection,
        )
        self._draining = False
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> int:
        """Warm the pool, then bind; returns the bound port."""
        await self.gateway.start()
        self.port = await self.http.start()
        return self.port

    async def drain(self, budget_s: float | None = None):
        """Graceful shutdown: refuse new work, settle in-flight within the
        drain budget, quarantine the rest, close pool and sockets."""
        if self._draining:
            return None
        self._draining = True
        # Kept-alive connections must learn about the drain *before* their
        # next response head is written: every in-flight reply goes out
        # ``Connection: close`` and no further requests are read.
        self.http.draining = True
        self._trace("app", "drain", "begin")
        report = await self.gateway.drain(budget_s)
        # In-flight handlers hold resolved futures now; let them flush
        # their responses before the listener goes away.
        await asyncio.sleep(0.05)
        await self.http.stop()
        return report

    # -- probes ---------------------------------------------------------

    def readiness(self) -> tuple[bool, dict]:
        """Pool warm ∧ not draining ∧ breaker closed ∧ queue below shed."""
        depth = self.gateway.queue_depth
        detail = {
            "warm": self.gateway.warm,
            "draining": self._draining or self.gateway.draining,
            "breaker": self.breaker.state,
            "queue_depth": depth,
            "shed_line": self.admission.shed_line,
        }
        ready = (
            detail["warm"]
            and not detail["draining"]
            and detail["breaker"] == "closed"
            and depth < self.admission.shed_line
        )
        return ready, detail

    def _trace(self, name: str, event: str, detail: str = "") -> None:
        metrics = self.metrics
        if metrics.enabled and getattr(metrics, "trace", False):
            metrics.events.append(serve_event(name, event, detail))

    def _on_connection(self, phase: str, client: str, active: int) -> None:
        """HttpServer lifecycle observer → connection instruments."""
        metrics = self.metrics
        if metrics.enabled:
            metrics.gauge("serve.connections.active").set(active)
            if phase == "reused":
                metrics.counter("serve.connections.reused").inc()
        self._trace("http", "connection", f"{phase} {client}")

    # -- routing ---------------------------------------------------------

    async def handle(self, request: Request) -> Response | StreamingResponse:
        path = request.path.rstrip("/") or "/"
        if request.method == "GET":
            if path == "/healthz":
                return json_response(
                    {"status": "ok", "draining": self._draining}
                )
            if path == "/readyz":
                ready, detail = self.readiness()
                payload = {"ready": ready}
                payload.update(detail)
                return json_response(payload, 200 if ready else 503)
            if path == "/metrics":
                return Response(
                    body=scrape(self.metrics, self.obs_window).encode("utf-8"),
                    content_type=CONTENT_TYPE,
                )
        endpoint = path.lstrip("/")
        if endpoint not in ENDPOINTS:
            raise HttpError(404, "not_found", f"no route {path!r}")
        if request.method != "POST":
            raise HttpError(
                405, "method_not_allowed", f"{endpoint} requires POST"
            )
        return await self._analyze(endpoint, request)

    # -- the analysis endpoints ------------------------------------------

    def _deadline_s(self, request: Request) -> float | None:
        raw = request.query.get("deadline_s")
        if raw is None:
            deadline = self.config.default_deadline_s
        else:
            try:
                deadline = float(raw)
                if deadline <= 0:
                    raise ValueError
            except ValueError:
                raise HttpError(
                    400, "bad_deadline", f"deadline_s={raw!r} is not a "
                    "positive number"
                )
        if deadline is None:
            return None
        if self.config.max_deadline_s > 0:
            deadline = min(deadline, self.config.max_deadline_s)
        return deadline

    async def _analyze(
        self, endpoint: str, request: Request
    ) -> Response | StreamingResponse:
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter(f"serve.requests.{endpoint}").inc()
        started = time.perf_counter()
        try:
            response = await self._gated(endpoint, request, started)
        except HttpError as error:
            # Only unexpected server-side failures burn the SLO error
            # budget: deliberate overload refusals and client mistakes
            # (4xx) are the policy working, not the service failing.
            if (
                error.status >= 500
                and error.code not in _POLICY_CODES
                and metrics.enabled
            ):
                metrics.counter(f"serve.errors.{endpoint}").inc()
            if error.code not in _PRE_ADMISSION_CODES:
                self._observe(endpoint, started)
            raise
        except Exception:
            if metrics.enabled:
                metrics.counter(f"serve.errors.{endpoint}").inc()
            self._observe(endpoint, started)
            raise
        return response

    def _observe(self, endpoint: str, started: float) -> None:
        if self.metrics.enabled:
            self.metrics.histogram(f"serve.latency.{endpoint}").observe(
                time.perf_counter() - started
            )

    async def _gated(
        self, endpoint: str, request: Request, started: float
    ) -> Response | StreamingResponse:
        """Admission → breaker → work.  Every admitted request releases
        its window slot (and half-open probe slot) exactly once, even
        when the response is a stream that outlives this call."""
        if self._draining or self.gateway.draining:
            raise HttpError(
                503, "draining", "server is draining", retry_after=5.0
            )
        if not request.body:
            raise HttpError(400, "empty_body", "request body is empty")
        deadline_s = self._deadline_s(request)  # 400 before admission
        rejection = self.admission.admit(
            request.client, self.gateway.queue_depth
        )
        if rejection is not None:
            self._trace(
                endpoint,
                "shed" if rejection.status == 503 else "rejected",
                rejection.code,
            )
            raise HttpError(
                rejection.status,
                rejection.code,
                rejection.message,
                retry_after=rejection.retry_after,
            )
        is_probe = False
        released = False

        def release_once() -> None:
            # Idempotent: the error path and the response-finished path
            # can both reach this without double-freeing the window slot.
            nonlocal released
            if released:
                return
            released = True
            self.admission.release(request.client)
            if is_probe:
                # A probe whose request ended without a pool verdict
                # (cache hit, deadline, crash) frees its slot without
                # deciding the breaker; after record_success/failure
                # already moved the state this is a no-op.
                self.breaker.abandon_probe()

        try:
            if not self.breaker.allow():
                self._trace(endpoint, "shed", "breaker_open")
                raise HttpError(
                    503,
                    "breaker_open",
                    "worker pool is recovering from repeated collapse",
                    retry_after=self.breaker.cooloff_s,
                )
            is_probe = self.breaker.state == HALF_OPEN
            self._trace(endpoint, "admitted", request.query.get("id", ""))
            return await self._respond(
                endpoint, request, deadline_s, started, release_once
            )
        except BaseException:
            release_once()
            raise

    async def _respond(
        self,
        endpoint: str,
        request: Request,
        deadline_s: float | None,
        started: float,
        release_once,
    ) -> Response | StreamingResponse:
        """The admitted path: single document or expanded archive."""
        body = request.body
        source_id = request.query.get(
            "id", f"http:{request.client}:{sha256_hex(body)[:12]}"
        )
        members: list[tuple[str, bytes]] | None = None
        if is_plain_archive(body) or is_tar_archive(body):
            try:
                members = expand_archive(source_id, body, metrics=self.metrics)
            except ArchiveBombError as error:
                raise HttpError(400, "archive_bomb", str(error)) from None

        if members is not None:
            # Archive: one NDJSON line per member, flushed in completion
            # order.  Members admit through the per-client window
            # individually (see _stream_members), so the envelope's own
            # slot converts rather than multiplying.
            return StreamingResponse(
                self._stream_members(
                    endpoint,
                    members,
                    deadline_s,
                    started,
                    release_once,
                    request.client,
                )
            )

        try:
            record = await self.gateway.analyze(
                source_id, body, deadline_s=deadline_s
            )
        except DeadlineExpired as error:
            self._trace(endpoint, "deadline_expired", source_id)
            raise HttpError(408, "deadline_expired", str(error)) from None
        except GatewayClosed as error:
            raise HttpError(503, "draining", str(error)) from None
        release_once()
        self._observe(endpoint, started)
        line = json.dumps(render_record(endpoint, record), sort_keys=True)
        return Response(
            body=(line + "\n").encode("utf-8"),
            content_type="application/x-ndjson",
        )

    async def _stream_members(
        self,
        endpoint: str,
        members: list[tuple[str, bytes]],
        deadline_s: float | None,
        started: float,
        release_once,
        client: str,
    ):
        """Stream one NDJSON line per member, window slots permitting.

        The archive's envelope slot converts to member-level admission:
        release it up front, then dispatch each member only when
        :meth:`AdmissionController.take_member` grants a window slot, and
        return the slot the moment that member settles.  A 500-member
        archive therefore holds at most ``per_client_window`` gateway
        queue slots at any instant — concurrent small requests keep
        admitting instead of being shed behind a wall of members.
        """
        deadline_at = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )

        async def analyze_member(mid, payload, rem):
            try:
                record = await self.gateway.analyze(
                    mid, payload, deadline_s=rem
                )
                return render_record(endpoint, record)
            except DeadlineExpired as error:
                self._trace(endpoint, "deadline_expired", mid)
                return {
                    "path": mid,
                    "error": {
                        "code": "deadline_expired",
                        "message": str(error),
                        "status": 408,
                    },
                }
            except GatewayClosed as error:
                return {
                    "path": mid,
                    "error": {
                        "code": "draining",
                        "message": str(error),
                        "status": 503,
                    },
                }

        release_once()
        queued = list(members)  # expansion order; dispatched FIFO
        running: set[asyncio.Task] = set()
        held = 0  # window slots taken but not yet released
        try:
            while queued or running:
                while queued and self.admission.take_member(client):
                    held += 1
                    member_id, data = queued.pop(0)
                    remaining = None
                    if deadline_at is not None:
                        remaining = max(
                            0.001, deadline_at - time.monotonic()
                        )
                    running.add(
                        asyncio.ensure_future(
                            analyze_member(member_id, data, remaining)
                        )
                    )
                if not running:
                    # The client's other requests hold the whole window;
                    # members wait for capacity, they do not jump it.
                    await asyncio.sleep(0.005)
                    continue
                done, running = await asyncio.wait(
                    running, return_when=asyncio.FIRST_COMPLETED
                )
                for settled in done:
                    self.admission.release(client)
                    held -= 1
                    payload = settled.result()  # analyze_member never raises
                    yield (
                        json.dumps(payload, sort_keys=True) + "\n"
                    ).encode("utf-8")
        finally:
            for task in running:
                if not task.done():
                    task.cancel()
            for _ in range(held):
                self.admission.release(client)
            release_once()
            self._observe(endpoint, started)


async def serve_forever(
    app: ServeApp,
    *,
    signals=(signal.SIGTERM, signal.SIGINT),
    on_ready=None,
):
    """Run the app until SIGTERM/SIGINT, then drain gracefully.

    ``on_ready(app)`` fires once the port is bound and the pool is warm.
    Returns the :class:`~repro.serve.gateway.DrainReport`.
    """
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in signals:
        loop.add_signal_handler(sig, stop.set)
    try:
        await app.start()
        if on_ready is not None:
            on_ready(app)
        await stop.wait()
    finally:
        for sig in signals:
            loop.remove_signal_handler(sig)
    return await app.drain()
