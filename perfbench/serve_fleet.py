"""``serve-fleet``: an open-loop schedule against a fresh ``repro serve``.

The server runs in its own process (2 warm workers, lint on, as
``repro serve`` always runs).  One client sends fleet-mix documents to
``POST /scan`` on a fixed schedule over at most two keep-alive
connections, at each rate of a fixed ladder.  Latency runs from when a
request was due, so a stalled server also charges the requests queued
behind the stall.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from inputs import FLEET_GROUP, fleet_group, fleet_properties
from scan import check_fleet, train_detector
from stats import latency_summary, percentile, tree_peak_rss_mb

#: Offered rates (requests/s) and each one's share of the run.  The
#: reference rung, whose latency is reported end to end, gets most.
RATES = ((50, 0.2), (100, 0.6), (200, 0.2))
REFERENCE_RATE = 100
#: Fleet groups sent before the ladder, so lazy imports in the workers
#: are paid before timing (a server pays them once, not per request).
WARM_UP_GROUPS = 2
#: Tail latency a rung must meet to count as sustained.
TAIL_LIMIT_MS = 100.0
CONNECTIONS = 2
#: Passed to the server so one client IP is never rate limited below the
#: top rung (the defaults, 50/s with burst 100, would refuse most of it).
SERVER_FLAGS = (
    "--jobs", "2",
    "--rate", str(4 * max(rate for rate, _ in RATES)),
    "--burst", str(4 * max(rate for rate, _ in RATES)),
    "--client-window", str(4 * CONNECTIONS),
)
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One ``python -m repro serve`` process with its stderr in a file."""

    def __init__(self, root: Path, run_dir: Path) -> None:
        self.root = root
        self.err_path = run_dir / f"serve-{os.getpid()}.stderr"
        self.argv = [sys.executable, "-m", "repro", "serve", "--port", "0", *SERVER_FLAGS]
        self.process = None
        self.port = None

    def start(self) -> float:
        """Launch and wait for ``/readyz`` 200; returns seconds taken."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.perf_counter()
        with open(self.err_path, "wb") as err:
            self.process = subprocess.Popen(
                self.argv, cwd=self.root, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
        deadline = started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited {self.process.returncode}: {self.stderr()}")
            if self.port is None:
                match = re.search(r"serving on http://[^:]+:(\d+)", self.stderr())
                if match:
                    self.port = int(match.group(1))
            if self.port is not None and self._get("/readyz")[0] == 200:
                return time.perf_counter() - started
            time.sleep(0.02)
        raise RuntimeError("server not ready in time")

    def _get(self, path: str) -> tuple[int, str]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read().decode("utf-8", "replace")
        except OSError:
            return 0, ""
        finally:
            connection.close()

    def scrape(self) -> dict:
        status, text = self._get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_prometheus(text)

    def stderr(self) -> str:
        return self.err_path.read_text(errors="replace")

    def stop(self) -> int:
        """SIGTERM (the drain path), then wait; kill after the timeout."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


def parse_prometheus(text: str) -> dict:
    """Sample name (with labels) -> value, from the text exposition."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


def _delta(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def histogram_percentile(after: dict, before: dict, family: str, q: float) -> float:
    """Interpolated quantile of a histogram's growth between two scrapes."""
    pattern = re.compile(re.escape(family) + r'_bucket\{le="([^"]+)"\}')
    buckets = sorted(
        (float("inf") if m.group(1) == "+Inf" else float(m.group(1)), _delta(after, before, key))
        for key in after
        if (m := pattern.fullmatch(key))
    )
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return 0.0
    rank, lower, below = q * total, 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == float("inf"):
                return lower
            inside = cumulative - below
            return lower + (bound - lower) * ((rank - below) / inside if inside else 1.0)
        lower, below = bound, cumulative
    return lower


class Client:
    """Open-loop sender over ``CONNECTIONS`` keep-alive connections."""

    def __init__(self, port: int) -> None:
        self.port = port

    def run(self, schedule: list[tuple[float, str, bytes]]) -> list[dict]:
        """Send each ``(due offset, id, body)``; one result per entry."""
        results: list[dict | None] = [None] * len(schedule)
        cursor = iter(range(len(schedule)))
        lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def sender():
            connection = None
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    break
                offset, sid, body = schedule[index]
                due = start + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                status, payload = 0, b""
                try:
                    if connection is None:
                        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
                    connection.request(
                        "POST", f"/scan?id={sid}", body=body,
                        headers={"Content-Type": "application/octet-stream"},
                    )
                    response = connection.getresponse()
                    status, payload = response.status, response.read()
                    if response.will_close:
                        connection.close()
                        connection = None
                except (OSError, http.client.HTTPException) as error:
                    payload = repr(error).encode()
                    if connection is not None:
                        connection.close()
                    connection = None
                done = time.perf_counter()
                results[index] = {
                    "due": due - start, "sent": sent - start, "done": done - start,
                    "status": status, "body": payload,
                }
            if connection is not None:
                connection.close()

        threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results  # type: ignore[return-value]


def _rung(client: Client, rng: random.Random, rate: int, duration: float, tag: str):
    count = max(FLEET_GROUP, int(rate * duration))
    groups = -(-count // FLEET_GROUP)
    docs = [doc for g in range(groups) for doc in fleet_group(rng, f"{tag}-{rate}-{g:03d}")][:count]
    schedule = [(i / rate, sid, data) for i, (sid, data, _) in enumerate(docs)]
    results = client.run(schedule)
    latencies = [r["done"] - r["due"] for r in results]
    lateness = [r["sent"] - r["due"] for r in results]
    end = schedule[-1][0]
    backlog = sum(1 for r in results if r["due"] <= end < r["done"])
    failures = sum(1 for r in results if r["status"] != 200)
    summary = latency_summary(latencies)
    summary.update(
        rate=rate,
        requests=len(results),
        failures=failures,
        refused=sum(1 for r in results if r["status"] in (429, 503)),
        lateness_p99_ms=percentile(lateness, 99.0) * 1e3,
        lateness_max_ms=max(lateness) * 1e3,
        backlog_at_end=backlog,
        wall_s=max(r["done"] for r in results),
    )
    summary["sustained"] = (
        failures == 0 and summary["tail_ms"] <= TAIL_LIMIT_MS and backlog <= CONNECTIONS
    )
    return docs, results, summary


def _ladder(client: Client, rng: random.Random, seconds: float, tag: str):
    rungs, all_docs, all_results = [], [], []
    for rate, share in RATES:
        docs, results, summary = _rung(client, rng, rate, seconds * share, tag)
        rungs.append(summary)
        all_docs.append(docs)
        all_results.append(results)
    return rungs, all_docs, all_results


def serve_fleet(seed: int, seconds: float, trace: bool, root: Path, run_dir: Path) -> dict:
    rng = random.Random(seed)
    server = Server(root, run_dir)
    try:
        setup_s = server.start()
        client = Client(server.port)
        warm_rng = random.Random(-seed - 1)
        client.run([
            (0.0, sid, data)
            for group in range(WARM_UP_GROUPS)
            for sid, data, _ in fleet_group(warm_rng, f"warm-{group}")
        ])
        rungs, docs, results = _ladder(client, rng, seconds, "run")
        layers = None
        if trace:
            layers, traced_docs, traced_results = _traced_ladder(
                server, client, rng, seconds, rungs
            )
            docs += traced_docs
            results += traced_results
        peak = tree_peak_rss_mb(server.process.pid)
    finally:
        status = server.stop()
    stderr = server.stderr()

    outputs, failed_requests = [], 0
    for rung_results in results:
        lines = []
        for r in rung_results:
            if r["status"] == 200:
                lines.append(json.loads(r["body"].decode("utf-8")))
            else:
                failed_requests += 1
                lines.append({"ok": False, "macros": [], "status": r["status"]})
        outputs.append(lines)
    detector = train_detector()
    failed, details = check_fleet(docs, outputs, detector, lint=True)
    reference = next(r for r in rungs if r["rate"] == REFERENCE_RATE)
    requests = sum(len(rung) for rung in results)
    sustained = [r["rate"] for r in rungs if r["sustained"]]
    details.update(
        rungs=rungs,
        sustained_rps=max(sustained) if sustained else 0,
        tail_limit_ms=TAIL_LIMIT_MS,
        server_flags=list(SERVER_FLAGS),
        server_exit_status=status,
        server_stderr=stderr,
        server_shutdown_clean=status == 0 and "Traceback" not in stderr,
        failed_requests=failed_requests,
    )
    # The server must drain and exit 0 with no traceback; anything else is
    # one more failed operation.
    failed += int(not details["server_shutdown_clean"])
    result = {
        "setup_s": setup_s,
        "latency": {
            k: reference[k]
            for k in ("samples", "p50_ms", "tail_percentile", "tail_ms", "tail_samples_beyond")
        },
        "latency_unit": f"one /scan request at {REFERENCE_RATE} requests/s, from when it was due",
        "docs": sum(r["requests"] - r["failures"] for r in rungs),
        "source_bytes": sum(
            len(text.encode("utf-8"))
            for rung, rung_results in zip(docs[: len(rungs)], results[: len(rungs)])
            for (_, _, text), r in zip(rung, rung_results)
            if r["status"] == 200
        ),
        "busy_s": sum(r["wall_s"] for r in rungs),
        "peak_rss_mb": peak,
        "attempted": requests,
        "failed": failed,
        "details": details,
        "properties": dict(
            fleet_properties([doc for rung in docs for doc in rung]),
            rates_rps=[rate for rate, _ in RATES],
        ),
    }
    if layers is not None:
        result["layers"] = layers
    return result


def _traced_ladder(server: Server, client: Client, rng, seconds: float, untraced) -> dict:
    """The ladder again on fresh documents, with ``/metrics`` scraped
    before, after, and every 0.25 s in between for the queue depth."""
    before = server.scrape()
    peaks: list[float] = []
    stop = threading.Event()

    def watch():
        while not stop.wait(0.25):
            try:
                peaks.append(server.scrape().get("repro_serve_queue_depth", 0.0))
            except (OSError, RuntimeError):
                continue

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        rungs, docs, results = _ladder(client, rng, seconds, "traced")
    finally:
        stop.set()
        watcher.join()
    after = server.scrape()
    flat = [r for rung in results for r in rung]
    requests = len(flat)
    served = _delta(after, before, "repro_serve_latency_scan_count")
    server_sum = _delta(after, before, "repro_serve_latency_scan_sum")
    round_trip = sum(r["done"] - r["sent"] for r in flat if r["status"] == 200)
    ok = sum(1 for r in flat if r["status"] == 200)

    def busy_ms(stage):
        return _delta(after, before, f"repro_span_{stage}_sum") / requests * 1e3

    # The server exports no lint or verdict counters, so they are counted
    # from the responses that were computed rather than served from cache.
    computed = [
        json.loads(r["body"])
        for r in flat
        if r["status"] == 200 and b"served from content-hash cache" not in r["body"]
    ]
    computed_macros = [m for payload in computed for m in payload["macros"]]
    tasks = _delta(after, before, "repro_stream_tasks_total")
    stages = ("extract", "filter", "analyze", "featurize", "lint", "classify")
    stage_ms = {stage: busy_ms(stage) for stage in stages}
    document_ms = busy_ms("document")
    wall = sum(r["wall_s"] for r in rungs)
    reference = next(r for r in rungs if r["rate"] == REFERENCE_RATE)
    untraced_reference = next(r for r in untraced if r["rate"] == REFERENCE_RATE)
    metrics = {
        "ole.extract_ms": stage_ms["extract"],
        "vba.analyze_ms": stage_ms["analyze"],
        "features.featurize_ms": stage_ms["featurize"],
        "lint.lint_ms": stage_ms["lint"],
        "lint.findings": sum(len(m["findings"]) for m in computed_macros),
        "ml.classify_ms": stage_ms["classify"],
        "ml.rows_scored": sum(1 for m in computed_macros if m["score"] is not None),
        "engine.doc_cache_hit_share": 1.0 - tasks / requests,
        "engine.self_ms": document_ms - sum(stage_ms.values()),
        "stream.worker_busy_share": _delta(after, before, "repro_span_document_sum")
        / (2 * wall),
        "stream.tasks": tasks,
        "stream.shm_results": _delta(after, before, "repro_stream_shm_results_total"),
        "stream.worker_restarts": _delta(after, before, "repro_stream_worker_restarts_total"),
        "serve.server_p50_ms": histogram_percentile(
            after, before, "repro_serve_latency_scan", 0.5
        )
        * 1e3,
        "serve.client_overhead_ms": (round_trip / ok - server_sum / served) * 1e3
        if ok and served
        else 0.0,
        "serve.refused": sum(1 for r in flat if r["status"] in (429, 503)),
        "serve.connections_reused_share": _delta(
            after, before, "repro_serve_connections_reused_total"
        )
        / requests,
        "serve.queue_depth_peak": max(peaks, default=0.0),
        "trace_overhead_share": reference["p50_ms"] / untraced_reference["p50_ms"] - 1.0,
    }
    report = {"metrics": metrics, "rungs": rungs, "stage_busy_ms_per_request": stage_ms}
    return report, docs, results
