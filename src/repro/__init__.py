"""Reproduction of "Obfuscated VBA Macro Detection Using Machine Learning"
(Kim, Hong, Oh, Lee — DSN 2018).

Subpackages:

* :mod:`repro.vba` — VBA lexer, structural analyzer, subset parser and
  interpreter (the language substrate);
* :mod:`repro.obfuscation` — the paper's O1–O4 obfuscation taxonomy as
  working transforms, plus the anti-analysis tricks of Section VI.B;
* :mod:`repro.ole` — MS-CFB / MS-OVBA / OOXML container formats and the
  olevba-equivalent macro extractor;
* :mod:`repro.corpus` — synthetic benign/malicious document corpus
  (Tables II/III population shape);
* :mod:`repro.avsim` — multi-vendor AV simulation with the paper's
  VirusTotal labeling thresholds;
* :mod:`repro.features` — the V1–V15 feature set (Table IV) and the J1–J20
  baseline (Table VI);
* :mod:`repro.ml` — from-scratch classifiers (SVM, RF, MLP, LDA, BNB),
  metrics and cross-validation;
* :mod:`repro.pipeline` — the end-to-end Section V experiments.

Quickstart::

    from repro import ObfuscationDetector
    detector = ObfuscationDetector("MLP").fit(sources, labels)
    detector.predict([new_macro_source])
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.features.matrix import extract_matrices
from repro.pipeline.classifiers import make_classifier, preprocessor_for


class ObfuscationDetector:
    """A ready-to-use detector: V features + one of the paper's classifiers.

    Train on labeled macro sources, then classify new ones::

        detector = ObfuscationDetector("MLP").fit(sources, labels)
        detector.predict(["Sub x()\\n...\\nEnd Sub"])
    """

    def __init__(self, classifier: str = "MLP", random_state: int = 0) -> None:
        self._model = make_classifier(classifier, random_state)
        factory = preprocessor_for(classifier)
        self._preprocessor = factory() if factory is not None else None
        self.classifier_name = classifier

    def fit(self, sources: list[str], labels) -> "ObfuscationDetector":
        """Train on macro source texts with 1 = obfuscated / 0 = normal."""
        import numpy as np

        X = extract_matrices(sources, ("V",))["V"]
        if self._preprocessor is not None:
            X = self._preprocessor.fit_transform(X)
        self._model.fit(X, np.asarray(labels))
        return self

    def _features(self, sources: list[str]):
        X = extract_matrices(sources, ("V",))["V"]
        if self._preprocessor is not None:
            X = self._preprocessor.transform(X)
        return X

    def predict(self, sources: list[str]):
        """Return 1 (obfuscated) / 0 (normal) per source."""
        return self._model.predict(self._features(sources))

    def predict_proba(self, sources: list[str]):
        """Return per-source [P(normal), P(obfuscated)]."""
        return self._model.predict_proba(self._features(sources))

    def proba_from_features(self, X):
        """Score pre-extracted raw V-feature rows (parse-once entry point).

        ``X`` is the untransformed (n × 15) matrix as produced by
        :func:`~repro.features.vfeatures.extract_v_features`; the fitted
        preprocessor is applied here, so callers that already hold a
        :class:`~repro.vba.analyzer.MacroAnalysis` never re-lex the source.
        """
        import numpy as np

        X = np.asarray(X, dtype=np.float64)
        if self._preprocessor is not None:
            X = self._preprocessor.transform(X)
        return self._model.predict_proba(X)

    def proba_from_matrix(self, X):
        """Batch-score raw feature rows: ``(n, 15) -> (n, 2)``.

        The batched classification kernel's canonical name for
        :meth:`proba_from_features`; the preprocessor transform and every
        classifier's inference path are row-stable, so any micro-batching
        of the same rows produces bit-identical probabilities.
        """
        return self.proba_from_features(X)


def detect_obfuscation(source: str, detector: ObfuscationDetector) -> bool:
    """Classify one macro source with a fitted detector."""
    return bool(detector.predict([source])[0])


__all__ = [
    "ObfuscationDetector",
    "__version__",
    "detect_obfuscation",
]
