"""Static de-obfuscation: one budgeted SA pass, then literals spliced into the input."""

from repro.deobfuscation.engine import (
    DeobfuscationReport,
    DeobfuscationResult,
    deobfuscate,
)

__all__ = [
    "DeobfuscationReport",
    "DeobfuscationResult",
    "deobfuscate",
]
