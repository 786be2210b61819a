"""The context objects threaded through the staged analysis pipeline.

One :class:`DocumentRecord` accompanies each input document from raw bytes
to verdict.  Stages never raise on bad input — every failure becomes a
:class:`Diagnostic` on the record, so a batch run is total: N inputs in,
N records out, errors carried in-band.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.findings import Finding
    from repro.sa.records import StringRecovery
    from repro.vba.analyzer import AnalysisSummary, MacroAnalysis

#: Diagnostic severities, mildest first.
LEVELS = ("info", "warning", "error")

#: Version of the JSON record shape (``DocumentRecord.to_dict``).  Bumped
#: to 2 when recovered-string fields (``recovery``, ``recovered_strings``)
#: joined the macro record; ``repro stats`` and downstream aggregators key
#: on this instead of sniffing fields.
ENGINE_SCHEMA_VERSION = 2


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8", "replace")
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One per-stage observation: provenance for the final record."""

    stage: str
    level: str
    message: str

    def to_dict(self) -> dict[str, str]:
        return {"stage": self.stage, "level": self.level, "message": self.message}

    def __reduce__(self):
        # Every worker record carries diagnostics over the pool's pipe; the
        # frozen-dataclass default pickles through a Python-level
        # ``fields()`` walk per instance, several times slower.
        return (Diagnostic, (self.stage, self.level, self.message))


@dataclass(slots=True)
class MacroRecord:
    """One extracted VBA module flowing through the macro-level stages."""

    module_name: str
    source: str
    sha256: str = ""
    module_type: str = "standard"
    #: "short" | "analysis-error" | "budget" | None (kept)
    filtered: str | None = None
    analysis: "MacroAnalysis | None" = None
    #: array-backed digest the batch feature kernels ran over (kept only
    #: under ``keep_analysis``, like the analysis itself)
    summary: "AnalysisSummary | None" = field(default=None, compare=False)
    #: normalized-source digest keying the feature-row cache
    feature_digest: str | None = field(default=None, compare=False)
    features: dict[str, np.ndarray] = field(default_factory=dict)
    findings: "list[Finding]" = field(default_factory=list)
    #: static-analysis result from the RecoverStage (None when not run)
    recovery: "StringRecovery | None" = field(default=None, compare=False)
    #: the recovered string values, kept flat for JSON/explain output
    recovered_strings: list[str] = field(default_factory=list)
    score: float | None = None
    verdict: str | None = None  # "obfuscated" | "normal"

    def __post_init__(self) -> None:
        if not self.sha256:
            self.sha256 = sha256_hex(self.source)

    @property
    def kept(self) -> bool:
        return self.filtered is None

    @property
    def is_obfuscated(self) -> bool:
        return self.verdict == "obfuscated"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.module_name,
            "type": self.module_type,
            "sha256": self.sha256,
            "chars": len(self.source),
            "filtered": self.filtered,
            "score": self.score,
            "verdict": self.verdict,
            "findings": [finding.to_dict() for finding in self.findings],
            "recovered_strings": list(self.recovered_strings),
            "recovery": self.recovery.to_dict()
            if self.recovery is not None
            else None,
        }


@dataclass(slots=True)
class DocumentRecord:
    """Everything the pipeline learned about one input document."""

    source_id: str
    data: bytes | None = None  # consumed by ExtractStage, then dropped
    sha256: str | None = None
    container: str | None = None
    macros: list[MacroRecord] = field(default_factory=list)
    document_variables: dict[str, str] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: per-stage wall-clock seconds, filled when the engine runs with a
    #: live metrics registry (empty when telemetry is off or cache-served)
    timings: dict[str, float] = field(default_factory=dict)
    #: True when a stage crashed, a budget tripped, or the document was
    #: quarantined — the record is partial but still delivered
    degraded: bool = False
    #: stage names that ran to completion on this record, in order
    completed_stages: list[str] = field(default_factory=list)
    #: set on quarantine records: {"reason", "attempts", "stage", "retriable"}
    quarantine: dict[str, Any] | None = None

    def diag(self, stage: str, level: str, message: str) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown diagnostic level {level!r}")
        self.diagnostics.append(Diagnostic(stage, level, message))

    @property
    def ok(self) -> bool:
        return not any(d.level == "error" for d in self.diagnostics)

    @property
    def error(self) -> str | None:
        for diagnostic in self.diagnostics:
            if diagnostic.level == "error":
                return f"{diagnostic.stage}: {diagnostic.message}"
        return None

    @property
    def kept_macros(self) -> list[MacroRecord]:
        return [macro for macro in self.macros if macro.kept]

    @property
    def sources(self) -> list[str]:
        return [macro.source for macro in self.macros]

    @property
    def any_obfuscated(self) -> bool:
        return any(macro.is_obfuscated for macro in self.macros)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable per-file record (the ``--format json`` shape)."""
        return {
            "schema_version": ENGINE_SCHEMA_VERSION,
            "path": self.source_id,
            "sha256": self.sha256,
            "ok": self.ok,
            "error": self.error,
            "container": self.container,
            "macros": [macro.to_dict() for macro in self.macros],
            "document_variables": dict(self.document_variables),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "timings": dict(self.timings),
            "degraded": self.degraded,
            "completed_stages": list(self.completed_stages),
            "quarantine": dict(self.quarantine)
            if self.quarantine is not None
            else None,
        }

    def degrade(self, stage: str, message: str) -> None:
        """Record a survivable failure: error diagnostic + degraded marker."""
        self.degraded = True
        self.diag(stage, "error", message)
