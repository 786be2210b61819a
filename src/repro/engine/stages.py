"""Composable pipeline stages: bytes → modules → analysis → features → verdict.

Each stage mutates the :class:`~repro.engine.records.DocumentRecord` in
place and records what it did as diagnostics.  Stages implement
:meth:`Stage.process`; macro-level stages implement
:meth:`MacroStage.process_macro` per kept macro.  :meth:`Stage.run` is the
one place the engine invokes a stage — for a document, and for a bare VBA
source wrapped in a one-macro document — so the span, the registry
hand-off, error counting and the hard watchdog are the same on every path.
"""

from __future__ import annotations

import numpy as np

from repro.engine.records import DocumentRecord, MacroRecord
from repro.features.cache import FeatureRowCache, normalized_digest
from repro.features.registry import get_feature_set
from repro.obs.metrics import NULL_REGISTRY, SCORE_BUCKETS
from repro.pipeline.classifiers import proba_from_matrix


class Stage:
    """Base class: one named step of the analysis pipeline."""

    name = "stage"

    #: The live registry, but only inside :meth:`run` — stages that record
    #: domain metrics (lint rule firings, score distributions, feature
    #: moments) read it from :meth:`process` via ``self._metrics``, and it
    #: resets to the null registry afterwards so a bare ``process()`` call
    #: never records anything.
    _metrics = NULL_REGISTRY

    def process(self, document: DocumentRecord) -> None:
        raise NotImplementedError

    def run(
        self, document: DocumentRecord, metrics, timeout: float | None = None
    ) -> None:
        """:meth:`process` inside a telemetry span, optionally under the
        hard watchdog.

        With a live registry the stage's wall time lands in the
        ``span.<name>`` histogram and on ``document.timings``,
        :meth:`process` sees the registry as ``self._metrics``, and every
        error diagnostic the stage adds bumps the ``errors.<name>``
        counter.  With the null registry none of that happens.  Given a
        ``timeout`` in seconds, :meth:`process` runs on a watchdog thread
        (:func:`~repro.resilience.budgets.call_with_timeout`) and
        :class:`~repro.resilience.budgets.StageTimeout` is raised when it
        passes; the span stays on the calling thread so trace depth stays
        consistent.
        """
        if timeout is None:
            work = self.process
        else:
            from repro.resilience.budgets import call_with_timeout

            def work(document: DocumentRecord) -> None:
                call_with_timeout(lambda: self.process(document), timeout)

        if not metrics.enabled:
            work(document)
            return
        before = len(document.diagnostics)
        failed = False
        span = metrics.span(self.name, doc=document.sha256).start()
        self._metrics = metrics
        try:
            work(document)
        except BaseException:
            failed = True
            raise
        finally:
            self._metrics = NULL_REGISTRY
            errors = sum(
                1 for d in document.diagnostics[before:] if d.level == "error"
            )
            if errors:
                metrics.counter(f"errors.{self.name}").inc(errors)
            span.finish(outcome="error" if errors or failed else "ok")
            document.timings[self.name] = span.duration


class MacroStage(Stage):
    """A stage that works per-macro; skips macros filtered upstream."""

    def process(self, document: DocumentRecord) -> None:
        for macro in document.macros:
            if macro.kept:
                self.process_macro(macro, document)

    def process_macro(
        self, macro: MacroRecord, document: DocumentRecord | None = None
    ) -> None:
        raise NotImplementedError


class ExtractStage(Stage):
    """Document bytes → VBA modules + hidden document variables."""

    name = "extract"

    def process(self, document: DocumentRecord) -> None:
        from repro.ole.extractor import ExtractionError, extract_macros

        if document.data is None:
            document.diag(self.name, "error", "no document bytes to extract from")
            return
        try:
            result = extract_macros(document.data)
        except ExtractionError as error:
            document.diag(self.name, "error", str(error))
            return
        document.container = result.container
        document.document_variables = dict(result.document_variables)
        document.macros = [
            MacroRecord(
                module_name=module.name,
                source=module.source,
                module_type=module.module_type,
            )
            for module in result.modules
        ]
        document.diag(
            self.name,
            "info",
            f"{len(document.macros)} modules ({result.container})",
        )


class FilterShortStage(Stage):
    """Drop *insignificant* macros below the paper's 150-byte cutoff."""

    name = "filter"

    def __init__(self, min_macro_bytes: int) -> None:
        if min_macro_bytes < 0:
            raise ValueError("min_macro_bytes must be non-negative")
        self.min_macro_bytes = min_macro_bytes

    def process(self, document: DocumentRecord) -> None:
        if self.min_macro_bytes == 0:
            return
        dropped = 0
        for macro in document.macros:
            if not macro.kept:
                continue
            size = len(macro.source.encode("utf-8", "replace"))
            if size < self.min_macro_bytes:
                macro.filtered = "short"
                dropped += 1
        if dropped:
            document.diag(
                self.name,
                "info",
                f"dropped {dropped} macros < {self.min_macro_bytes} bytes",
            )


class AnalyzeStage(MacroStage):
    """Lex each module once into the shared :class:`MacroAnalysis`.

    When the engine wires in a :class:`~repro.features.cache.FeatureRowCache`
    (and nothing downstream needs the analysis itself), a macro whose
    normalized-source digest already has every configured feature row
    cached skips tokenization entirely — re-submitted line-ending/BOM
    variants of a known macro cost one hash, not a lexer pass.
    """

    name = "analyze"

    def __init__(
        self,
        feature_cache: FeatureRowCache | None = None,
        cached_sets: tuple[str, ...] = (),
        analysis_required: bool = False,
    ) -> None:
        self.feature_cache = feature_cache
        self.cached_sets = tuple(cached_sets)
        #: True when a downstream consumer (lint, keep_analysis, custom
        #: macro stages) needs the token-level analysis even on cache hits
        self.analysis_required = analysis_required

    def process_macro(
        self, macro: MacroRecord, document: DocumentRecord | None = None
    ) -> None:
        from repro.vba.analyzer import analyze

        cache = self.feature_cache
        if cache is not None and self.cached_sets and not self.analysis_required:
            macro.feature_digest = normalized_digest(macro.source)
            rows = cache.get(macro.feature_digest, self.cached_sets)
            if rows is not None:
                macro.features.update(rows)
                return
        try:
            macro.analysis = analyze(macro.source)
        except Exception as error:  # analyzer bug — keep the batch alive
            macro.filtered = "analysis-error"
            if document is not None:
                document.diag(
                    self.name, "error", f"{macro.module_name}: {error}"
                )


class FeaturizeStage(MacroStage):
    """Vectorize analyses through the registered feature sets — in batches.

    Macros accumulate into a micro-batch and flush through each set's
    column-batch kernel (:meth:`FeatureSet.extract_matrix`), so one
    document's modules are vectorized in single numpy passes instead of
    per-macro Python loops.  The kernels are row-deterministic: a macro's
    row is bit-identical at any batch size, which is what keeps the serial
    and streamed paths exactly equal.  Finished rows are stored in the
    engine's feature-row cache (when wired) under the macro's
    normalized-source digest.
    """

    name = "featurize"

    def __init__(
        self,
        feature_sets: tuple[str, ...] = ("V",),
        feature_cache: FeatureRowCache | None = None,
        batch_size: int = 256,
    ) -> None:
        self.feature_sets = tuple(feature_sets)
        for name in self.feature_sets:  # fail fast on unknown names
            get_feature_set(name)
        self.feature_cache = feature_cache
        self.batch_size = max(1, int(batch_size))

    def process(self, document: DocumentRecord) -> None:
        pending: list[MacroRecord] = []
        for macro in document.macros:
            if macro.kept:
                self._accumulate(macro, pending)
                if len(pending) >= self.batch_size:
                    self._flush(pending)
        self._flush(pending)

    def process_macro(
        self, macro: MacroRecord, document: DocumentRecord | None = None
    ) -> None:
        pending: list[MacroRecord] = []
        self._accumulate(macro, pending)
        self._flush(pending)

    def _accumulate(self, macro: MacroRecord, pending: list[MacroRecord]) -> None:
        """Serve a macro from cache or queue it for the batch kernels."""
        if all(name in macro.features for name in self.feature_sets):
            return
        cache = self.feature_cache
        if cache is not None and macro.feature_digest is None:
            # AnalyzeStage didn't consult the cache (analysis was needed
            # anyway); one lookup here still skips the kernel work.
            macro.feature_digest = normalized_digest(macro.source)
            rows = cache.get(macro.feature_digest, self.feature_sets)
            if rows is not None:
                macro.features.update(rows)
                return
        if macro.analysis is None:
            return
        pending.append(macro)

    def _flush(self, pending: list[MacroRecord]) -> None:
        if not pending:
            return
        for macro in pending:
            macro.summary = macro.analysis.ensure_summary()
        summaries = [macro.summary for macro in pending]
        metrics = self._metrics
        for name in self.feature_sets:
            matrix = get_feature_set(name).extract_matrix(summaries)
            for macro, row in zip(pending, matrix):
                macro.features[name] = row
            if metrics.enabled and len(matrix):
                observe_feature_moments(metrics, name, matrix)
        cache = self.feature_cache
        if cache is not None:
            for macro in pending:
                if macro.feature_digest is not None:
                    cache.put(
                        macro.feature_digest,
                        {name: macro.features[name] for name in self.feature_sets},
                    )
        pending.clear()


def observe_feature_moments(metrics, name: str, matrix: np.ndarray) -> None:
    """Fold a flushed feature matrix into the per-dimension
    ``feature.<set>.cNN`` moments the drift monitor reads.

    One reduction per flush: each column is reduced as a row of the
    transposed copy, which sums in the same pairwise order as the column
    alone, so the moments are bit-identical to per-column sums
    (``sum(axis=0)`` would not be).
    """
    columns = np.ascontiguousarray(matrix.T)
    rows = matrix.shape[0]
    for index, (total, squares, low, high) in enumerate(
        zip(
            columns.sum(axis=1).tolist(),
            (columns * columns).sum(axis=1).tolist(),
            columns.min(axis=1).tolist(),
            columns.max(axis=1).tolist(),
        )
    ):
        metrics.moment(f"feature.{name}.c{index:02d}").observe_aggregate(
            rows, total, squares, low, high
        )


class RecoverStage(MacroStage):
    """Budgeted static string recovery (:mod:`repro.sa`) per kept macro.

    Runs the constant-folding abstract interpreter over the macro source,
    attaches the :class:`~repro.sa.records.StringRecovery` (plus the flat
    ``recovered_strings`` list) to the record, re-scans the recovered
    strings against the avsim master signatures, and computes the ``R``
    feature row.  Total by construction: parse failures and budget
    exhaustion land *in* the recovery record, never as exceptions, so the
    stage cannot degrade a document on hostile input.
    """

    name = "recover"

    #: Recovery-cache bound; one entry is one (small) StringRecovery.
    _CACHE_LIMIT = 4096

    def __init__(self, sa_budget=None) -> None:
        from repro.resilience.budgets import DEFAULT_SA_BUDGET

        self.sa_budget = sa_budget or DEFAULT_SA_BUDGET
        #: normalized-source digest → finished StringRecovery (frozen, so
        #: sharing across macros is safe).  Folding is a pure function of
        #: the normalized source + budget, which makes re-encoded variants
        #: (CRLF/BOM re-submissions) free — the same economics as the
        #: feature-row cache, and the reason the recover stage holds the
        #: <15% fleet-overhead budget.
        self._cache: dict[str, object] = {}

    def process_macro(
        self, macro: MacroRecord, document: DocumentRecord | None = None
    ) -> None:
        from dataclasses import replace

        from repro.sa.features import summarize_recovery
        from repro.sa.interpreter import recover_strings
        from repro.sa.iocs import ioc_kinds

        if macro.feature_digest is None:
            macro.feature_digest = normalized_digest(macro.source)
        recovery = self._cache.get(macro.feature_digest)
        if recovery is None:
            recovery = recover_strings(
                macro.source, self.sa_budget, self._metrics, analysis=macro.analysis
            )
            values = recovery.values()
            signature_hits: tuple[str, ...] = ()
            if values:
                from repro.avsim.signatures import match_signatures

                names = []
                for value in values:
                    for signature in match_signatures(value):
                        if signature.name not in names:
                            names.append(signature.name)
                signature_hits = tuple(names)
                if signature_hits:
                    self._metrics.counter("sa.signature_hits").inc(
                        len(signature_hits)
                    )
            recovery = replace(
                recovery,
                signature_hits=signature_hits,
                ioc_kinds=ioc_kinds(values),
            )
            if len(self._cache) >= self._CACHE_LIMIT:
                self._cache.pop(next(iter(self._cache)))
            self._cache[macro.feature_digest] = recovery
        else:
            self._metrics.counter("sa.cache_hits").inc()
        macro.recovery = recovery
        macro.recovered_strings = recovery.values()
        macro.features["R"] = get_feature_set("R").extract(
            summarize_recovery(recovery, macro.source)
        )


class LintStage(MacroStage):
    """Run the registered obfuscation lint rules over each analysis.

    Findings land on :attr:`MacroRecord.findings` and travel with the
    record through caching and JSON output.  The stage needs the
    :class:`AnalyzeStage` substrate, so it must run after it (and before
    ``keep_analysis`` cleanup drops the analysis).  When a
    :class:`RecoverStage` ran first, the macro's recovery result is passed
    through so the ``SA`` rules can lint recovered strings.
    """

    name = "lint"

    def __init__(self, rules: tuple[str, ...] | None = None) -> None:
        from repro.lint.registry import get_rule

        self.rules = tuple(rules) if rules is not None else None
        if self.rules is not None:
            for rule_id in self.rules:  # fail fast on unknown rule ids
                get_rule(rule_id)

    def process_macro(
        self, macro: MacroRecord, document: DocumentRecord | None = None
    ) -> None:
        from repro.lint.registry import lint_analysis

        if macro.analysis is None:
            return
        macro.findings = lint_analysis(
            macro.analysis, self.rules, recovery=macro.recovery
        )
        metrics = self._metrics
        if metrics.enabled:
            macros, findings, rules = self._instruments(metrics)
            macros.inc()
            if macro.findings:
                findings.inc(len(macro.findings))
                for finding in macro.findings:
                    counter = rules.get(finding.rule_id)
                    if counter is None:
                        counter = metrics.counter(
                            f"lint.rule.{finding.rule_id}"
                        )
                        rules[finding.rule_id] = counter
                    counter.inc()

    def _instruments(self, metrics):
        """Instrument handles cached per registry, off the per-macro path."""
        cached = self._instrument_cache
        if cached is None or cached[0] is not metrics:
            cached = (
                metrics,
                metrics.counter("lint.macros"),
                metrics.counter("lint.findings"),
                {},
            )
            self._instrument_cache = cached
        return cached[1], cached[2], cached[3]

    _instrument_cache = None

    def __getstate__(self):
        # Workers bind to their own registry; never ship the parent's
        # cached instrument handles inside the engine pickle.
        state = self.__dict__.copy()
        state.pop("_instrument_cache", None)
        return state


class ClassifyStage(MacroStage):
    """Score feature rows with a fitted detector — in micro-batches.

    Mirrors :class:`FeaturizeStage`: a document's kept macros accumulate
    into a pending batch and flush through one
    :func:`~repro.pipeline.classifiers.proba_from_matrix` call, so a
    500-module document costs one matrix product instead of 500 Python
    round-trips into the detector.  The scoring kernels are row-stable
    (see :mod:`repro.ml.linalg`), so a macro's score and verdict are
    bit-identical whether it flushes alone (the bare-source
    :meth:`process_macro` path scores a batch of one through the same
    kernel) or inside a fleet-sized batch.  Macros without a feature row
    never enter the batch — exactly the rows the per-row path skipped.
    """

    name = "classify"

    def __init__(
        self,
        detector,
        feature_set: str = "V",
        threshold: float = 0.5,
        batch_size: int = 256,
    ) -> None:
        self.detector = detector
        self.feature_set = feature_set
        self.threshold = threshold
        self.batch_size = max(1, int(batch_size))

    def process(self, document: DocumentRecord) -> None:
        pending: list[MacroRecord] = []
        for macro in document.macros:
            if macro.kept:
                self._accumulate(macro, pending)
                if len(pending) >= self.batch_size:
                    self._flush(pending)
        self._flush(pending)

    def process_macro(
        self, macro: MacroRecord, document: DocumentRecord | None = None
    ) -> None:
        pending: list[MacroRecord] = []
        self._accumulate(macro, pending)
        self._flush(pending)

    def _accumulate(
        self, macro: MacroRecord, pending: list[MacroRecord]
    ) -> None:
        if macro.features.get(self.feature_set) is not None:
            pending.append(macro)

    def _instruments(self, metrics):
        """Instrument handles cached per registry, off the per-macro path."""
        cached = self._instrument_cache
        if cached is None or cached[0] is not metrics:
            cached = (
                metrics,
                metrics.histogram("score.probability", SCORE_BUCKETS),
                {
                    "obfuscated": metrics.counter("classify.obfuscated"),
                    "normal": metrics.counter("classify.normal"),
                },
            )
            self._instrument_cache = cached
        return cached[1], cached[2]

    _instrument_cache = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_instrument_cache", None)
        return state

    def _flush(self, pending: list[MacroRecord]) -> None:
        if not pending:
            return
        matrix = np.stack(
            [macro.features[self.feature_set] for macro in pending]
        )
        proba = np.asarray(proba_from_matrix(self.detector, matrix))
        threshold = self.threshold
        metrics = self._metrics
        if metrics.enabled:
            score_hist, verdict_counters = self._instruments(metrics)
            for macro, row in zip(pending, proba):
                macro.score = float(row[1])
                macro.verdict = (
                    "obfuscated" if macro.score >= threshold else "normal"
                )
                score_hist.observe(macro.score)
                verdict_counters[macro.verdict].inc()
        else:
            for macro, row in zip(pending, proba):
                macro.score = float(row[1])
                macro.verdict = (
                    "obfuscated" if macro.score >= threshold else "normal"
                )
        pending.clear()
