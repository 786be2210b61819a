"""Prometheus text exposition and the stdlib `/metrics` endpoint.

:func:`render_prometheus` turns a registry snapshot (plus, optionally, a
sliding-window view) into Prometheus text format v0.0.4 — ``_total``
counters, cumulative ``le``-labelled histogram buckets with ``+Inf``,
``_sum``/``_count``, and ``repro_window_*`` gauges for the live sliding
aggregates; :func:`scrape` renders one snapshot of a live registry, the
same way for every endpoint that serves it.  :class:`MetricsServer`
serves it from a daemon thread through the asyncio HTTP/1.1 stack of
:mod:`repro.serve.http` (keep-alive included) with two routes:

``/metrics``
    the exposition text, scrape-ready;
``/healthz``
    a one-line JSON liveness probe.

``repro scan --metrics-port N`` attaches one to a batch run; the class is
equally importable on its own for gateway embedders::

    from repro.obs.export import MetricsServer
    server = MetricsServer(registry, window=window, port=9108)
    port = server.start()          # port=0 picks a free one
    ...
    server.stop()

No third-party client library: the text format is a stable, documented
contract and writing it directly keeps the no-dependency property of the
whole telemetry stack.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from concurrent.futures import Future
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import SlidingWindow, WindowView

#: Every exported family is prefixed with this.
NAMESPACE = "repro"

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str) -> str:
    """Registry names (``span.extract``) to metric names (``span_extract``)."""
    cleaned = _NAME_OK.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_histogram(lines: list[str], family: str, payload: dict[str, Any]) -> None:
    lines.append(f"# TYPE {family} histogram")
    cumulative = 0
    for bound, bucket_count in zip(payload["buckets"], payload["counts"]):
        cumulative += bucket_count
        lines.append(
            f'{family}_bucket{{le="{_format_value(float(bound))}"}} {cumulative}'
        )
    lines.append(f'{family}_bucket{{le="+Inf"}} {payload["count"]}')
    lines.append(f"{family}_sum {_format_value(payload['sum'])}")
    lines.append(f"{family}_count {payload['count']}")


def render_prometheus(
    registry: MetricsRegistry | dict[str, Any],
    window: WindowView | None = None,
) -> str:
    """Render one scrape of the cumulative state (+ optional window view)."""
    snapshot = (
        registry.to_dict()
        if isinstance(registry, MetricsRegistry)
        else registry
    )
    lines: list[str] = []

    for name in sorted(snapshot.get("counters", {})):
        family = f"{NAMESPACE}_{sanitize_name(name)}_total"
        lines.append(f"# TYPE {family} counter")
        lines.append(
            f"{family} {_format_value(float(snapshot['counters'][name]))}"
        )

    for name in sorted(snapshot.get("gauges", {})):
        family = f"{NAMESPACE}_{sanitize_name(name)}"
        lines.append(f"# TYPE {family} gauge")
        lines.append(
            f"{family} {_format_value(float(snapshot['gauges'][name]))}"
        )

    for name in sorted(snapshot.get("histograms", {})):
        _render_histogram(
            lines,
            f"{NAMESPACE}_{sanitize_name(name)}",
            snapshot["histograms"][name],
        )

    for name in sorted(snapshot.get("moments", {})):
        family = f"{NAMESPACE}_{sanitize_name(name)}"
        payload = snapshot["moments"][name]
        count = payload["count"]
        mean = payload["sum"] / count if count else 0.0
        lines.append(f"# TYPE {family}_count counter")
        lines.append(f"{family}_count {count}")
        lines.append(f"# TYPE {family}_sum counter")
        lines.append(f"{family}_sum {_format_value(payload['sum'])}")
        lines.append(f"# TYPE {family}_mean gauge")
        lines.append(f"{family}_mean {_format_value(mean)}")

    if window is not None:
        _render_window(lines, window)

    return "\n".join(lines) + "\n"


def _render_window(lines: list[str], view: WindowView) -> None:
    """The sliding aggregates, as labelled gauges under ``repro_window_*``."""
    lines.append(f"# TYPE {NAMESPACE}_window_seconds gauge")
    lines.append(
        f"{NAMESPACE}_window_seconds {_format_value(view.span_s)}"
    )

    rate_family = f"{NAMESPACE}_window_rate_per_sec"
    names = sorted(set(view.counters) | set(view.histograms))
    if names:
        lines.append(f"# TYPE {rate_family} gauge")
        for name in names:
            lines.append(
                f'{rate_family}{{name="{_escape_label(name)}"}} '
                f"{_format_value(view.rate(name))}"
            )

    latency_family = f"{NAMESPACE}_window_quantile"
    quantile_lines = []
    for name in sorted(view.histograms):
        for q in (0.5, 0.95):
            quantile_lines.append(
                f'{latency_family}{{name="{_escape_label(name)}",'
                f'quantile="{q}"}} {_format_value(view.percentile(name, q))}'
            )
    if quantile_lines:
        lines.append(f"# TYPE {latency_family} gauge")
        lines.extend(quantile_lines)


def scrape(registry: MetricsRegistry, window: SlidingWindow | None = None) -> str:
    """One scrape of a live registry (+ the window's current view).

    Scrapes read the registry while the analysis thread appends to it;
    instruments are created once, then mutated in place, so a scrape
    mid-creation can at worst hit a dict resize — handled by one snapshot
    retry rather than a lock on the hot path.
    """
    for attempt in (1, 2):
        try:
            view = (
                window.view(registry)
                if window is not None and registry.enabled
                else None
            )
            return render_prometheus(registry.to_dict(), view)
        except RuntimeError:  # dict mutated during snapshot; retry once
            if attempt == 2:
                raise
    raise AssertionError("unreachable")


class MetricsServer:
    """`/metrics` + `/healthz` over one registry, from a daemon thread.

    The thread owns an event loop running :class:`repro.serve.http.HttpServer`
    — the same HTTP/1.1 keep-alive stack ``repro serve`` answers on.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        window: SlidingWindow | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.window = window
        self.host = host
        self.requested_port = port
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = None  # thread-safe "shut down" callable while serving

    # -- scrape payloads ----------------------------------------------

    def scrape(self) -> str:
        return scrape(self.registry, self.window)

    def health(self) -> str:
        return json.dumps({"status": "ok", "telemetry": self.registry.enabled})

    async def _handle(self, request):
        from repro.serve.http import HttpError, Response

        if request.method == "GET" and request.path == "/metrics":
            return Response(
                body=self.scrape().encode("utf-8"), content_type=CONTENT_TYPE
            )
        if request.method == "GET" and request.path == "/healthz":
            return Response(body=(self.health() + "\n").encode("utf-8"))
        raise HttpError(404, "not_found", f"no route {request.method} {request.path}")

    # -- lifecycle -----------------------------------------------------

    def start(self) -> int:
        """Bind and serve from a daemon thread; returns the bound port.

        A bind failure (``OSError``) is raised here, in the caller.
        """
        if self._thread is not None:
            assert self.port is not None
            return self.port
        ready: Future = Future()
        thread = threading.Thread(
            target=asyncio.run,
            args=(self._serve(ready),),
            name="repro-metrics-server",
            daemon=True,
        )
        thread.start()
        try:
            self.port, self._stop = ready.result()
        except BaseException:
            thread.join()
            raise
        self._thread = thread
        return self.port

    async def _serve(self, ready: Future) -> None:
        # Imported here, not at the top: repro.serve imports this module.
        from repro.serve.http import HttpServer

        http = HttpServer(self._handle, host=self.host, port=self.requested_port)
        try:
            port = await http.start()
        except BaseException as error:
            ready.set_exception(error)
            return
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        ready.set_result((port, lambda: loop.call_soon_threadsafe(stopping.set)))
        try:
            await stopping.wait()
        finally:
            await http.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop()
        self._thread.join(timeout=5.0)
        self._thread = self._stop = None

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
