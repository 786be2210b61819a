"""O1 — Random obfuscation: randomize identifiers (Table I, Fig. 2).

Every *declared* identifier in the module — procedure names, parameters,
``Dim``/``Const``/``For`` variables — is renamed to a random string.  Member
accesses (``object.Value``) and undeclared names (host-application objects,
built-in functions) are left untouched, so the transformed macro still binds
against the host object model.

The transform rebuilds the source from the token stream, so strings and
comments are never corrupted by the renaming.
"""

from __future__ import annotations

from repro.obfuscation.base import ObfuscationContext
from repro.vba.analyzer import analyze
from repro.vba.lexer import TokenTable, lex
from repro.vba.tokens import TokenKind


class RandomRenamer:
    """Rename declared identifiers to random meaningless strings."""

    category = "O1"

    def __init__(self, rename_fraction: float = 1.0) -> None:
        if not 0.0 <= rename_fraction <= 1.0:
            raise ValueError("rename_fraction must be within [0, 1]")
        self._fraction = rename_fraction

    def apply(self, source: str, context: ObfuscationContext) -> str:
        analysis = analyze(source)
        targets = list(analysis.declared_identifiers)
        if not targets:
            return source
        if self._fraction < 1.0:
            count = max(1, round(len(targets) * self._fraction))
            targets = context.rng.sample(targets, count)

        mapping = {
            name.lower(): context.fresh_name() for name in targets
        }
        return _rename(analysis.table, mapping)


def rename_identifiers(source: str, mapping: dict[str, str]) -> str:
    """Apply a lower-cased-name → new-name mapping across the token stream.

    Identifiers reached through member access (preceded by ``.``) are never
    renamed; everything else matching the mapping (case-insensitively) is.
    """
    return _rename(lex(source), mapping)


def _rename(table: TokenTable, mapping: dict[str, str]) -> str:
    identifier = TokenKind.IDENTIFIER
    layout = (TokenKind.WHITESPACE, TokenKind.LINE_CONTINUATION)
    parts: list[str] = []
    after_dot = False  # the previous token, layout aside, is ``.``
    for kind, text in zip(table.kinds, table.texts):
        if kind is identifier and not after_dot:
            replacement = mapping.get(text.lower())
            if replacement is not None:
                parts.append(replacement)
                after_dot = False
                continue
        parts.append(text)
        if kind not in layout:
            after_dot = text == "."
    return "".join(parts)
