"""Output checks shared by the workloads.

The feature-row cache serves a CRLF/BOM re-encoding of a macro the row of
whichever encoding the process saw first (``repro.features.cache``,
DESIGN.md).  Scores of re-encoded macros therefore depend on arrival order
and on which worker saw which encoding, so the checks here compare them
against the exact scores of every encoding of the same normalized source,
and count separately how often a score differs from the serial record's.
"""

from __future__ import annotations


def comparable(payload: dict) -> dict:
    """A record dict without what depends on arrival order: timings, the
    note on the copy served from the content-hash cache (under serve, two
    requests for one document can reach the server in either order, so
    either may be the one analysed), and the per-macro fields that depend
    on which encoding defined a cached feature row."""
    payload = dict(payload)
    payload.pop("timings", None)
    payload["diagnostics"] = [d for d in payload["diagnostics"] if d["stage"] != "cache"]
    payload["macros"] = [
        {k: v for k, v in macro.items() if k not in ("score", "verdict")}
        for macro in payload["macros"]
    ]
    return payload


class ScoreOracle:
    """``ObfuscationDetector.predict_proba([source])``, once per source."""

    def __init__(self, detector, threshold: float = 0.5) -> None:
        self.detector = detector
        self.threshold = threshold
        self._exact: dict[str, float] = {}

    def exact(self, source: str) -> float:
        score = self._exact.get(source)
        if score is None:
            score = float(self.detector.predict_proba([source])[0][1])
            self._exact[source] = score
        return score

    def verdict(self, score: float) -> str:
        return "obfuscated" if score >= self.threshold else "normal"


def check_macros(macros, oracle: ScoreOracle, encodings_of) -> int:
    """How many ``(source, score, verdict)`` fail: a score that is not the
    exact score of one of ``encodings_of(source)`` (tried in order, so
    list the likeliest first), or a verdict that disagrees with it."""
    failed = 0
    for source, score, verdict in macros:
        if score is None or verdict != oracle.verdict(score):
            failed += 1
        elif not any(score == oracle.exact(other) for other in encodings_of(source)):
            failed += 1
    return failed
