"""The staged :class:`AnalysisEngine`: one parse-once pipeline from document
bytes to verdict.

Every entry point of the repo — CLI commands, the dataset builder, the
experiment runner, the examples — drives this engine instead of gluing
extraction / analysis / featurization together privately.  The engine:

* threads a :class:`~repro.engine.records.DocumentRecord` through the
  configured stages (extract → filter → analyze → featurize → classify);
* is **total**: per-file failures become error diagnostics on the record,
  never exceptions (N inputs in, N records out);
* memoizes whole-document results in a content-hash (SHA-256) cache, so
  duplicate attachments are analyzed once;
* fans batches out over a persistent warm
  :class:`~repro.engine.stream.StreamingPool` with
  ``run_batch(inputs, jobs=N)``, and exposes the same pool as a true
  streaming front-end via :meth:`AnalysisEngine.stream` (documents from
  an iterator, bounded-window backpressure, results yielded as they
  complete under an ordering contract).

Records served from the cache share their macro list with the original
record; treat records as read-only after a run.

The engine is **resilient** as well as total (see :mod:`repro.resilience`):
every document runs under a :class:`~repro.resilience.budgets.Budget`
(input size, wall clock, optional hard per-stage watchdog, macro
count/volume caps), a stage that crashes mid-pipeline degrades the record
instead of losing it (later stages still run over what exists), and
``run_batch(jobs=N)`` survives worker death — with one task in flight per
worker, blame is per-task: the blamed document is retried with capped
backoff and quarantined when retries are exhausted, while only the dead
worker is rebuilt (survivors stay warm, no bisection rounds).
"""

from __future__ import annotations

import asyncio
import math
import os
import threading
import time
import weakref
from collections.abc import AsyncIterator, Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.engine.records import DocumentRecord, MacroRecord, sha256_hex
from repro.engine.stream import deadline_limited
from repro.engine.stages import (
    AnalyzeStage,
    ClassifyStage,
    ExtractStage,
    FeaturizeStage,
    FilterShortStage,
    LintStage,
    MacroStage,
    RecoverStage,
    Stage,
)
from repro.features.cache import FeatureRowCache
from repro.features.matrix import extract_matrices
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.resilience.budgets import (
    DEFAULT_BUDGET,
    Budget,
    StageTimeout,
    call_with_timeout,
    clip_budget,
)

#: chunks per worker for :meth:`AnalysisEngine.feature_matrices` fan-out
#: (documents go through the per-task streaming pool instead).
_CHUNKS_PER_JOB = 4


def default_stages(
    *,
    detector=None,
    feature_sets: tuple[str, ...] = ("V",),
    min_macro_bytes: int = 0,
    threshold: float = 0.5,
    lint: bool = False,
    lint_rules: tuple[str, ...] | None = None,
    recover: bool = False,
    sa_budget=None,
) -> list[Stage]:
    """The canonical stage chain for the given options."""
    stages: list[Stage] = [ExtractStage()]
    if min_macro_bytes > 0:
        stages.append(FilterShortStage(min_macro_bytes))
    if feature_sets or lint:
        stages.append(AnalyzeStage())
    if recover:  # between analyze and featurize: R rows and recovered
        stages.append(RecoverStage(sa_budget))  # strings feed downstream
    if feature_sets:
        stages.append(FeaturizeStage(feature_sets))
    if lint:
        stages.append(LintStage(lint_rules))
    if detector is not None:
        if not feature_sets:
            raise ValueError("a detector needs at least one feature set")
        stages.append(ClassifyStage(detector, feature_sets[0], threshold))
    return stages


class AnalysisEngine:
    """Run documents (or bare macro sources) through the staged pipeline."""

    def __init__(
        self,
        stages: Sequence[Stage] | None = None,
        *,
        detector=None,
        feature_sets: tuple[str, ...] = ("V",),
        min_macro_bytes: int = 0,
        threshold: float = 0.5,
        lint: bool = False,
        lint_rules: tuple[str, ...] | None = None,
        recover: bool = False,
        sa_budget=None,
        cache_size: int = 1024,
        keep_analysis: bool = False,
        metrics: MetricsRegistry | None = None,
        budget: Budget | None = DEFAULT_BUDGET,
        retry=None,
        chaos=None,
        mp_context: str | None = None,
        feature_cache_size: int = 4096,
        shm_threshold: int | None = None,
    ) -> None:
        if stages is None:
            stages = default_stages(
                detector=detector,
                feature_sets=tuple(feature_sets),
                min_macro_bytes=min_macro_bytes,
                threshold=threshold,
                lint=lint,
                lint_rules=lint_rules,
                recover=recover,
                sa_budget=sa_budget,
            )
        self.stages = list(stages)
        self.budget = budget
        self.retry = retry  # RetryPolicy | None (None = DEFAULT_RETRY)
        if chaos is not None:  # FaultPlan: splice the saboteur in
            from repro.resilience.chaos import ChaosStage

            position = next(
                (
                    index + 1
                    for index, stage in enumerate(self.stages)
                    if isinstance(stage, ExtractStage)
                ),
                0,
            )
            self.stages.insert(position, ChaosStage(chaos))
        self.feature_sets = tuple(feature_sets)
        self.keep_analysis = keep_analysis
        #: worker→parent results at or above this pickle size travel over a
        #: shared-memory segment instead of the result pipe (None = default
        #: threshold, <= 0 disables shm transport entirely)
        self.shm_threshold = shm_threshold
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._feature_cache = self._wire_feature_cache(feature_cache_size)
        self._cache: dict[str, DocumentRecord] | None = (
            {} if cache_size > 0 else None
        )
        self._cache_size = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: worker start method for the streaming pool (None = platform default)
        self.mp_context = mp_context
        self._pool = None  # lazily-built persistent StreamingPool
        self._pool_config: tuple | None = None
        #: serializes pool build/teardown: async shutdown may close from a
        #: signal handler and a context manager simultaneously
        self._lifecycle_lock = threading.Lock()
        #: optional fleet-observability attachments, parent-side only: a
        #: :class:`~repro.obs.windows.SlidingWindow` advanced by
        #: :meth:`_observability_tick`, and a
        #: :class:`~repro.obs.drift.DriftMonitor` scoring live traffic
        #: against a baseline profile.  Both are plain assignable
        #: attributes; workers never see them (see ``__getstate__``).
        self.window = None
        self.drift_monitor = None

    def _wire_feature_cache(self, capacity: int) -> FeatureRowCache | None:
        """Build the normalized-source feature-row cache and wire it into
        the analyze/featurize stages.

        The analyze stage may *skip tokenization* on a hit, but only when
        nothing downstream needs the token-level analysis: ``keep_analysis``
        off and no macro stage beyond analyze/featurize/classify in the
        chain (lint and custom macro stages read ``macro.analysis``).
        """
        featurize = [s for s in self.stages if isinstance(s, FeaturizeStage)]
        if capacity <= 0 or not featurize:
            return None
        cache = FeatureRowCache(capacity)
        cached_sets = tuple(
            dict.fromkeys(
                name for stage in featurize for name in stage.feature_sets
            )
        )
        # RecoverStage folds the raw source, not the token analysis, so it
        # does not force tokenization on cache hits.
        analysis_needed = self.keep_analysis or any(
            isinstance(stage, MacroStage)
            and not isinstance(
                stage,
                (AnalyzeStage, FeaturizeStage, ClassifyStage, RecoverStage),
            )
            for stage in self.stages
        )
        for stage in self.stages:
            if isinstance(stage, AnalyzeStage):
                stage.feature_cache = cache
                stage.cached_sets = cached_sets
                stage.analysis_required = analysis_needed
            elif isinstance(stage, FeaturizeStage):
                stage.feature_cache = cache
        return cache

    # -- convenience constructors --------------------------------------

    @classmethod
    def for_extraction(
        cls,
        min_macro_bytes: int = 0,
        metrics: MetricsRegistry | None = None,
        budget: Budget | None = DEFAULT_BUDGET,
        chaos=None,
        mp_context: str | None = None,
    ) -> "AnalysisEngine":
        """Extraction (and optional length filter) only — no featurization."""
        return cls(
            feature_sets=(),
            min_macro_bytes=min_macro_bytes,
            metrics=metrics,
            budget=budget,
            chaos=chaos,
            mp_context=mp_context,
        )

    @classmethod
    def for_features(
        cls,
        feature_sets: tuple[str, ...] = ("V", "J"),
        metrics: MetricsRegistry | None = None,
    ) -> "AnalysisEngine":
        """Analyze + featurize, no classifier (training / experiments)."""
        return cls(feature_sets=feature_sets, metrics=metrics)

    @classmethod
    def for_scan(
        cls,
        detector,
        feature_sets: tuple[str, ...] = ("V",),
        threshold: float = 0.5,
        lint: bool = False,
        recover: bool = False,
        sa_budget=None,
        metrics: MetricsRegistry | None = None,
        budget: Budget | None = DEFAULT_BUDGET,
        chaos=None,
    ) -> "AnalysisEngine":
        """The full chain ending in a verdict (deployment / CLI scan)."""
        return cls(
            detector=detector,
            feature_sets=feature_sets,
            threshold=threshold,
            lint=lint,
            recover=recover,
            sa_budget=sa_budget,
            metrics=metrics,
            budget=budget,
            chaos=chaos,
        )

    @classmethod
    def for_lint(
        cls,
        rules: tuple[str, ...] | None = None,
        recover: bool = False,
        sa_budget=None,
        metrics: MetricsRegistry | None = None,
        budget: Budget | None = DEFAULT_BUDGET,
        chaos=None,
    ) -> "AnalysisEngine":
        """Extract + analyze + lint only — explainable findings, no verdict."""
        return cls(
            feature_sets=(),
            lint=True,
            lint_rules=rules,
            recover=recover,
            sa_budget=sa_budget,
            metrics=metrics,
            budget=budget,
            chaos=chaos,
        )

    # -- pickling (workers get an empty cache and a private registry) --

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_cache"] = {} if self._cache is not None else None
        state["cache_hits"] = 0
        state["cache_misses"] = 0
        state["cache_evictions"] = 0
        # Workers fill a same-configuration empty registry; the parent
        # folds the snapshots back in as the stream flushes.
        state["metrics"] = self.metrics.spawn()
        # The warm pool is parent-side infrastructure, never shipped —
        # and so are the observability attachments.
        state["_pool"] = None
        state["_pool_config"] = None
        state["window"] = None
        state["drift_monitor"] = None
        state["_lifecycle_lock"] = None  # locks don't pickle; rebuilt on load
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.__dict__.get("_lifecycle_lock") is None:
            self._lifecycle_lock = threading.Lock()

    # -- warm-pool lifecycle -------------------------------------------

    def _stream_pool(self, jobs: int, window: int | None = None):
        """The persistent warm pool for this engine, (re)built on demand.

        The pool survives across ``run_batch`` / ``stream`` calls — that
        is the whole point: workers spawn and import once, then stay warm.
        A call with a different ``jobs``/``window`` shape tears the old
        pool down and builds a fresh one.
        """
        from repro.engine.stream import StreamingPool

        config = (jobs, window)
        with self._lifecycle_lock:
            if self._pool is not None and self._pool_config != config:
                self._pool.close()
                self._pool = None
            if self._pool is None:
                pool = StreamingPool(
                    self,
                    jobs,
                    window=window,
                    retry=self.retry,
                    mp_context=self.mp_context,
                )
                self._pool = pool
                self._pool_config = config
                # The pool holds only a weak reference back to the engine,
                # so this finalizer can fire and shut the workers down.
                weakref.finalize(self, StreamingPool.close, pool)
            return self._pool

    def close(self) -> None:
        """Shut the warm pool down (workers exit).  The engine stays usable;
        the next ``jobs > 1`` call builds a fresh pool.

        Idempotent and safe under concurrent callers: exactly one caller
        detaches the pool under the lifecycle lock and tears it down (the
        pool's own close is likewise race-safe for the finalizer path).
        """
        with self._lifecycle_lock:
            pool, self._pool, self._pool_config = self._pool, None, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "AnalysisEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- cache ---------------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Cache traffic so far — merged parent + worker numbers.

        Worker-process counts are folded in as each ``run_batch(jobs=N)``
        pool drains, so the totals agree between ``jobs=1`` and
        ``jobs=N`` runs of the same inputs.  The ``feature_*`` keys report
        the normalized-source feature-row cache (hit/miss/eviction
        counters merge from workers too; ``feature_size`` is the parent
        process's own cache — row contents never cross processes).
        """
        feature = (
            self._feature_cache.info()
            if self._feature_cache is not None
            else {"hits": 0, "misses": 0, "evictions": 0, "size": 0}
        )
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "size": len(self._cache) if self._cache is not None else 0,
            "feature_hits": feature["hits"],
            "feature_misses": feature["misses"],
            "feature_evictions": feature["evictions"],
            "feature_size": feature["size"],
        }

    def _cache_get(self, digest: str) -> DocumentRecord | None:
        if self._cache is None:
            return None
        record = self._cache.get(digest)
        if record is not None:
            self.cache_hits += 1
        return record

    def _cache_put(self, digest: str, record: DocumentRecord) -> None:
        if self._cache is None:
            return
        self.cache_misses += 1
        if digest in self._cache:
            return
        if record.quarantine is not None:
            # Quarantine is an infrastructure observation about this run,
            # not a property of the content — never serve it from cache.
            return
        if deadline_limited(record):
            # Shaped by one request's deadline, not by the content: the
            # same document under a patient caller analyzes fully.
            return
        while len(self._cache) >= self._cache_size:
            self._cache.pop(next(iter(self._cache)))
            self.cache_evictions += 1
        self._cache[digest] = record

    @staticmethod
    def _cached_copy(record: DocumentRecord, source_id: str) -> DocumentRecord:
        copy = DocumentRecord(
            source_id=source_id,
            data=None,
            sha256=record.sha256,
            container=record.container,
            macros=record.macros,
            document_variables=record.document_variables,
            diagnostics=list(record.diagnostics),
            degraded=record.degraded,
            completed_stages=list(record.completed_stages),
            quarantine=dict(record.quarantine)
            if record.quarantine is not None
            else None,
        )
        copy.diag("cache", "info", "served from content-hash cache")
        return copy

    # -- single inputs -------------------------------------------------

    def run(self, source, source_id: str | None = None) -> DocumentRecord:
        """Analyze one document (path, bytes, or (id, bytes) pair)."""
        return self._run_one(source, source_id=source_id)

    def _run_one(
        self, item, deadline_s: float | None = None, *, source_id: str | None = None
    ) -> DocumentRecord:
        """The serial document path behind :meth:`run` and the ``jobs <= 1``
        faces of :meth:`stream` and :meth:`astream`: coerce, serve from
        the cache, else process and cache."""
        sid, data, error = _coerce_input(item)
        if source_id is not None:
            sid = source_id
        if error is not None:
            return _unreadable(sid, error)
        digest = sha256_hex(data)
        cached = self._cache_get(digest)
        if cached is not None:
            return self._cached_copy(cached, sid)
        record = self._process(sid, data, digest, deadline_s)
        self._cache_put(digest, record)  # refuses deadline-shaped records
        return record

    def _process(
        self,
        source_id: str,
        data: bytes,
        digest: str,
        deadline_s: float | None = None,
    ) -> DocumentRecord:
        """One document through the stages.

        ``deadline_s`` is a request deadline in seconds: the document
        analyzes under the engine budget clipped to it (which also arms
        the per-stage watchdog), and a record it degrades is marked with a
        ``deadline`` diagnostic so no cache ever keeps it.
        """
        if deadline_s is not None:
            saved = self.budget
            self.budget = clip_budget(saved, deadline_s)
            try:
                record = self._process(source_id, data, digest)
            finally:
                self.budget = saved
            if record.degraded:
                record.diag(
                    "deadline",
                    "info",
                    f"analyzed under a {deadline_s:.3f}s request deadline",
                )
            return record
        record = DocumentRecord(source_id=source_id, data=data, sha256=digest)
        metrics = self.metrics
        budget = self.budget
        if (
            budget is not None
            and budget.max_input_bytes is not None
            and len(data) > budget.max_input_bytes
        ):
            record.degrade(
                "budget",
                f"input is {len(data):,} bytes; budget allows "
                f"{budget.max_input_bytes:,} — refused before extraction",
            )
            if metrics.enabled:
                metrics.counter("budget.input_rejected").inc()
                metrics.counter("documents.degraded").inc()
            record.data = None
            return record
        clock = budget.clock() if budget is not None else None
        if not metrics.enabled and clock is None:
            for stage in self.stages:  # the bare pre-resilience fast path
                stage.process(record)
        elif not metrics.enabled:
            self._run_stages(record, clock, metrics)
        else:
            span = metrics.span("document", doc=digest).start()
            try:
                self._run_stages(record, clock, metrics)
            finally:
                span.finish(outcome="ok" if record.ok else "error")
                record.timings["document"] = span.duration
        record.data = None  # bytes are consumed; keep records IPC-light
        if not self.keep_analysis:
            for macro in record.macros:
                macro.analysis = None
                macro.summary = None
        if metrics.enabled:
            if record.degraded:
                metrics.counter("documents.degraded").inc()
            self._observability_tick()
        return record

    def _run_stages(self, record: DocumentRecord, clock, metrics) -> None:
        """The budgeted stage loop: degrade on crash, stop on timeout."""
        budget = clock.budget if clock is not None else None
        for stage in self.stages:
            if clock is not None and clock.expired():
                record.degrade(
                    "budget",
                    f"wall-clock budget {budget.wall_clock_s:g}s exhausted "
                    f"before stage {stage.name!r}",
                )
                if metrics.enabled:
                    metrics.counter("budget.timeouts").inc()
                break
            timeout = clock.stage_timeout() if clock is not None else None
            try:
                if timeout is not None:
                    self._run_stage_watchdog(stage, record, timeout, metrics)
                elif metrics.enabled:
                    stage.run(record, metrics)
                else:
                    stage.process(record)
            except StageTimeout:
                record.degrade(
                    "budget",
                    f"stage {stage.name!r} exceeded its {timeout:g}s hard "
                    f"timeout and was abandoned",
                )
                if metrics.enabled:
                    metrics.counter("budget.timeouts").inc()
                # The abandoned watchdog thread may still mutate the record;
                # running further stages over racing state helps nobody.
                break
            except Exception as error:
                record.degrade(
                    stage.name,
                    f"stage crashed: {type(error).__name__}: {error}",
                )
                if metrics.enabled:
                    metrics.counter("resilience.stage_crashes").inc()
                    metrics.counter(f"errors.{stage.name}").inc()
                continue  # graceful degradation: later stages use what exists
            record.completed_stages.append(stage.name)
            if budget is not None:
                self._enforce_output_budget(record, budget, metrics)

    def _run_stage_watchdog(
        self, stage: Stage, record: DocumentRecord, timeout: float, metrics
    ) -> None:
        """One stage under the hard watchdog, with the span kept on the
        calling thread so trace depth stays consistent."""
        if not metrics.enabled:
            call_with_timeout(lambda: stage.process(record), timeout)
            return
        before = len(record.diagnostics)
        failed = False
        span = metrics.span(stage.name, doc=record.sha256).start()
        try:
            call_with_timeout(lambda: stage.process(record), timeout)
        except BaseException:
            failed = True
            raise
        finally:
            errors = sum(
                1 for d in record.diagnostics[before:] if d.level == "error"
            )
            if errors:
                metrics.counter(f"errors.{stage.name}").inc(errors)
            span.finish(outcome="error" if errors or failed else "ok")
            record.timings[stage.name] = span.duration

    def _enforce_output_budget(
        self, record: DocumentRecord, budget: Budget, metrics
    ) -> None:
        """Cap what the stages *produced*: surplus macros (count or total
        source characters) become ``filtered="budget"`` stubs."""
        candidates = [m for m in record.macros if m.filtered != "budget"]
        if not candidates:
            return
        keep = len(candidates)
        if budget.max_macro_count is not None:
            keep = min(keep, budget.max_macro_count)
        if budget.max_output_bytes is not None:
            total = 0
            for index, macro in enumerate(candidates[:keep]):
                total += len(macro.source)
                if total > budget.max_output_bytes:
                    keep = index
                    break
        if keep >= len(candidates):
            return
        dropped = candidates[keep:]
        dropped_chars = sum(len(m.source) for m in dropped)
        for macro in dropped:
            macro.filtered = "budget"
            macro.source = ""  # don't let a bomb ride along in the record
            macro.analysis = None
        record.degrade(
            "budget",
            f"macro output over budget: kept {keep} of {len(candidates)} "
            f"macros, dropped {dropped_chars:,} source chars",
        )
        if metrics.enabled:
            metrics.counter("budget.macros_dropped").inc(len(dropped))

    def run_source(self, source: str, name: str = "Macro1") -> MacroRecord:
        """Run one bare VBA source through the macro-level stages.

        The document budget's wall clock applies cooperatively: a source
        that overruns it mid-pipeline comes back ``filtered="budget"``.
        """
        macro = MacroRecord(module_name=name, source=source)
        metrics = self.metrics
        clock = self.budget.clock() if self.budget is not None else None
        if not metrics.enabled:  # the hot single-shot path stays bare
            for stage in self.stages:
                if isinstance(stage, MacroStage) and macro.kept:
                    if clock is not None and clock.expired():
                        macro.filtered = "budget"
                        break
                    stage.process_macro(macro)
        else:
            for stage in self.stages:
                if isinstance(stage, MacroStage) and macro.kept:
                    if clock is not None and clock.expired():
                        macro.filtered = "budget"
                        metrics.counter("budget.timeouts").inc()
                        break
                    stage.run_macro(macro, metrics)
        if not self.keep_analysis:
            macro.analysis = None
            macro.summary = None
        return macro

    # -- batches -------------------------------------------------------

    def run_batch(
        self, inputs: Iterable, jobs: int = 1, *, window: int | None = None
    ) -> list[DocumentRecord]:
        """Analyze many documents; returns one record per input, in order.

        Inputs may mix paths, raw bytes, ``(source_id, bytes)`` pairs, and
        objects with ``file_name``/``data`` attributes.  Identical content
        (by SHA-256) is analyzed once and served from the cache for every
        other occurrence.  With ``jobs > 1`` the unique documents are
        dispatched one task at a time over the engine's persistent
        :class:`~repro.engine.stream.StreamingPool` (workers spawn once
        and stay warm across calls; ``window`` bounds in-flight tasks);
        worker telemetry folds back into :attr:`metrics` (and the cache
        counters) incrementally and is complete before this method
        returns.
        """
        span = self.metrics.span("batch").start()
        try:
            prepared = [_coerce_input(item) for item in inputs]
            records: list[DocumentRecord | None] = [None] * len(prepared)

            # Positions that need processing, grouped by content hash.
            pending: dict[str, list[int]] = {}
            for index, (sid, data, error) in enumerate(prepared):
                if error is not None:
                    records[index] = _unreadable(sid, error)
                    continue
                digest = sha256_hex(data)
                cached = self._cache_get(digest)
                if cached is not None:
                    records[index] = self._cached_copy(cached, sid)
                    continue
                pending.setdefault(digest, []).append(index)

            unique = [
                (digest, prepared[positions[0]][0], prepared[positions[0]][1])
                for digest, positions in pending.items()
            ]
            if jobs > 1 and len(unique) > 1:
                # Per-task dispatch over the warm pool.  The tasks are unique
                # by digest, so each key *is* its digest, and completion order
                # is fine: records are reassembled by position below.
                pool = self._stream_pool(jobs, window)
                entries = (("task", d, sid, data, d) for d, sid, data in unique)
                processed = {
                    result.key: result.record
                    for result in pool.stream(entries, ordered=False)
                }
            else:
                processed = {
                    digest: self._process(sid, data, digest)
                    for digest, sid, data in unique
                }

            for digest, positions in pending.items():
                record = processed[digest]
                self._cache_put(digest, record)
                first, *rest = positions  # record was processed under first's id
                records[first] = record
                for index in rest:
                    self.cache_hits += 1
                    records[index] = self._cached_copy(record, prepared[index][0])
            return records  # type: ignore[return-value]
        finally:
            span.finish()

    def stream(
        self,
        inputs: Iterable,
        *,
        jobs: int = 1,
        window: int | None = None,
        ordered: bool = True,
    ) -> Iterator[DocumentRecord]:
        """Stream records for an unbounded feed in ``O(window)`` memory.

        Unlike :meth:`run_batch`, the feed is consumed **lazily**: at most
        ``window`` documents are admitted beyond what the caller has
        consumed (backpressure), so a million-document queue never
        materializes.  With ``ordered`` (the default) records come back
        in input order through a bounded reorder buffer; ``ordered=False``
        yields in completion order.  Content seen before is served from
        the engine cache, and identical documents in flight at the same
        time are coalesced and analyzed once.

        ``jobs <= 1`` degrades to a lazy serial loop with the same
        contract (order, caching, totality, O(1) memory).
        """
        if jobs <= 1:
            for item in inputs:
                record = self.run(item)
                # Cache hits skip _process, so tick here as well: sliding
                # windows keep advancing on a hit-heavy serial feed.
                self._observability_tick()
                yield record
            return
        pool = self._stream_pool(jobs, window)
        entries = (self._stream_entry(seq, item) for seq, item in enumerate(inputs))
        for result in pool.stream(entries, ordered=ordered):
            self._settle_stream_result(result)
            yield result.record

    def _stream_entry(self, key, item, deadline: float | None = None) -> tuple:
        """Coerce one input into a tagged :meth:`StreamingPool.astream`
        entry; ``deadline`` is an absolute ``time.monotonic()`` instant."""
        sid, data, error = _coerce_input(item)
        if error is not None:
            return ("ready", key, _unreadable(sid, error))
        digest = sha256_hex(data)
        cached = self._cache_get(digest)
        if cached is not None:
            return ("ready", key, self._cached_copy(cached, sid))
        return ("task", key, sid, data, digest, deadline)

    def _settle_stream_result(self, result) -> None:
        """Parent-side bookkeeping for one settled stream result."""
        if result.computed:
            self._cache_put(result.record.sha256, result.record)
        elif result.coalesced:
            self.cache_hits += 1

    async def astream(
        self,
        inputs,
        *,
        jobs: int = 1,
        window: int | None = None,
        ordered: bool = True,
        deadline_s: float | None = None,
    ) -> AsyncIterator[DocumentRecord]:
        """:meth:`stream` for a running event loop.

        ``inputs`` may be a sync or async iterable; every other contract —
        laziness under the admission window, ordering, caching,
        coalescing, totality, quarantine — matches :meth:`stream`.
        ``deadline_s`` propagates a per-document deadline into the
        :class:`~repro.resilience.budgets.Budget` machinery: documents
        still queued when it passes settle as degraded ``deadline``
        records (their admission slots released, nothing cached), and
        dispatched documents analyze under a budget clipped to the time
        remaining — so a request deadline shorter than a configured
        ``--stage-timeout`` wins.

        ``jobs <= 1`` runs serially on a worker thread, keeping the loop
        free; ``jobs > 1`` multiplexes onto the persistent warm pool's
        :meth:`~repro.engine.stream.StreamingPool.astream` loop.
        """
        if jobs <= 1:
            async for item in _aiter_entries(inputs):
                record = await asyncio.to_thread(self._run_one, item, deadline_s)
                self._observability_tick()
                yield record
            return
        pool = self._stream_pool(jobs, window)

        async def entries():
            seq = 0
            async for item in _aiter_entries(inputs):
                deadline = (
                    time.monotonic() + deadline_s if deadline_s is not None else None
                )
                yield self._stream_entry(seq, item, deadline)
                seq += 1

        async for result in pool.astream(entries(), ordered=ordered):
            self._settle_stream_result(result)
            yield result.record


    def _merge_worker_telemetry(self, telemetry: dict) -> None:
        """Fold one worker's registry snapshot + cache counts into ours."""
        if telemetry["metrics"] is not None:
            self.metrics.merge(telemetry["metrics"])
        cache = telemetry["cache"]
        self.cache_hits += cache["hits"]
        self.cache_misses += cache["misses"]
        self.cache_evictions += cache["evictions"]
        if self._feature_cache is not None:
            self._feature_cache.hits += cache.get("feature_hits", 0)
            self._feature_cache.misses += cache.get("feature_misses", 0)
            self._feature_cache.evictions += cache.get("feature_evictions", 0)
        self._observability_tick()

    def _observability_tick(self) -> None:
        """Advance the attached sliding window and drift monitor.

        Called from every telemetry merge point — worker snapshot folds,
        the streaming settle loop, and the serial document path — so the
        attachments trail live traffic by at most one merge interval.
        Both attachments time-gate internally, and the whole call is three
        attribute checks when nothing is attached (or telemetry is off).
        """
        if not self.metrics.enabled:
            return
        if self.window is not None:
            self.window.tick(self.metrics)
        if self.drift_monitor is not None:
            self.drift_monitor.tick()

    def feature_matrices(
        self,
        sources: Sequence[str],
        feature_sets: tuple[str, ...] | None = None,
        jobs: int = 1,
    ) -> dict[str, np.ndarray]:
        """Per-set (n_samples × n_features) matrices over bare macro sources.

        The registry-backed replacement for hand-rolled featurization: each
        source is analyzed once and summarized, then every requested set
        vectorizes whole chunks through its column-batch kernel — the same
        kernels documents hit through :meth:`run_batch`.  With ``jobs > 1``
        each worker builds the matrices for its chunk of sources and the
        parent stacks the blocks; the kernels are row-deterministic, so
        chunking never changes a row.
        """
        names = tuple(feature_sets) if feature_sets else self.feature_sets
        if not names:
            raise ValueError("no feature sets requested")
        sources = list(sources)
        if jobs > 1 and len(sources) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                parts = list(
                    pool.map(
                        _featurize_source_chunk,
                        [(names, chunk) for chunk in _chunked(sources, jobs)],
                    )
                )
            return {
                name: np.vstack([part[name] for part in parts])
                for name in names
            }
        return extract_matrices(sources, names)


# ----------------------------------------------------------------------
# Module-level helpers (picklable for the process pool).


def _coerce_input(item) -> tuple[str, bytes | None, str | None]:
    """Normalize one batch input to ``(source_id, bytes|None, error|None)``."""
    if isinstance(item, tuple) and len(item) == 2:
        source_id, data = item
        return str(source_id), bytes(data), None
    if isinstance(item, (bytes, bytearray, memoryview)):
        data = bytes(item)
        return f"<bytes:{sha256_hex(data)[:12]}>", data, None
    if hasattr(item, "data") and hasattr(item, "file_name"):
        return str(item.file_name), bytes(item.data), None
    path = os.fspath(item)
    try:
        with open(path, "rb") as handle:
            return str(path), handle.read(), None
    except OSError as error:
        return str(path), None, str(error)


def _aiter_entries(items) -> AsyncIterator:
    """An async iterator over ``items``, whichever flavor it already is."""
    if hasattr(items, "__aiter__"):
        return items.__aiter__()

    async def adapt() -> AsyncIterator:
        for item in items:
            yield item

    return adapt()


def _unreadable(source_id: str, error: str) -> DocumentRecord:
    """The record for an input that could not be read."""
    record = DocumentRecord(source_id=source_id)
    record.diag("read", "error", error)
    return record


def _chunked(items: list, jobs: int) -> list[list]:
    size = max(1, math.ceil(len(items) / (jobs * _CHUNKS_PER_JOB)))
    return [items[start : start + size] for start in range(0, len(items), size)]


def _featurize_source_chunk(payload) -> dict[str, np.ndarray]:
    names, sources = payload
    return extract_matrices(sources, names)
