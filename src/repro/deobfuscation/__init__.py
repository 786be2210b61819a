"""Static de-obfuscation: one budgeted SA pass, then a literal rewrite."""

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
