"""O4 — logic/dummy-code obfuscation rules.

Logic obfuscation inflates modules with code that never contributes to
execution: junk procedures nothing calls, module-level declarations
nothing reads, statements parked behind an unconditional ``Exit Sub``,
and no-op arithmetic.  All four shapes are detectable from the token
stream without running anything.
"""

from __future__ import annotations

from repro.lint.context import LintContext
from repro.lint.registry import Rule, register_rule
from repro.vba.tokens import TokenKind

#: Entry points the Office host invokes directly — never dead code.
_HOST_ENTRY_POINTS = frozenset(
    {
        "auto_open",
        "auto_close",
        "auto_exec",
        "autoopen",
        "autoclose",
        "autoexec",
        "document_open",
        "document_close",
        "document_new",
        "workbook_open",
        "workbook_close",
    }
)


@register_rule
class DeadProcedure(Rule):
    """A ``Private`` procedure that no code in the module ever invokes.

    Private procedures are invisible to the host's macro UI, so an
    uncalled one is unreachable by construction — the signature of
    inserted junk procedures.  Public procedures and host entry points
    are exempt (the host calls them).
    """

    rule_id = "o4-dead-procedure"
    o_class = "O4"
    severity = "medium"
    description = "private procedure is never invoked (dead junk code)"

    def scan(self, ctx: LintContext):
        texts = ctx.texts
        for visibility, name in ctx.procedure_headers.values():
            lowered = texts[name].lower()
            if visibility != "private" or lowered in _HOST_ENTRY_POINTS:
                continue
            if ctx.use_counts.get(lowered, 0) == 0:
                yield self.finding(
                    ctx,
                    name,
                    f"private procedure {texts[name]!r} is never called",
                )


@register_rule
class UnusedVariable(Rule):
    """A ``Dim``'d variable that never appears again in the module."""

    rule_id = "o4-unused-variable"
    o_class = "O4"
    severity = "low"
    description = "declared variable is never used (dummy declaration)"

    def scan(self, ctx: LintContext):
        texts = ctx.texts
        for name in ctx.dim_names:
            if ctx.use_counts.get(texts[name].lower(), 0) == 0:
                yield self.finding(
                    ctx,
                    name,
                    f"variable {texts[name]!r} is declared but never used",
                )


@register_rule
class UnreachableCode(Rule):
    """Statements after an unconditional top-level ``Exit Sub``/``Function``.

    An ``Exit`` at procedure-body depth (not inside any block) makes every
    following statement before ``End Sub`` unreachable — where obfuscators
    park dummy or deliberately broken code.
    """

    rule_id = "o4-unreachable-code"
    o_class = "O4"
    severity = "medium"
    description = "code after an unconditional Exit Sub/Function is unreachable"

    _OPENERS = ("for", "do", "while", "with", "select")
    _CLOSERS = ("next", "loop", "wend")

    def scan(self, ctx: LintContext):
        headers = ctx.procedure_headers
        if not headers or "exit" not in ctx.index:
            return  # no procedure to be in, or no Exit to shadow code
        words = ctx.words
        in_procedure = False
        depth = 0
        pending_exit = False
        for number, (start, end) in enumerate(ctx.statement_bounds):
            head = words[start]
            second = words[start + 1] if end - start > 1 else None
            if number in headers:
                in_procedure = True
                depth = 0
                pending_exit = False
                continue
            if head == "end" and second in ("sub", "function"):
                in_procedure = False
                pending_exit = False
                continue
            if not in_procedure:
                continue
            if pending_exit:
                yield self.finding(
                    ctx,
                    start,
                    "statement is unreachable: an unconditional Exit "
                    "precedes it",
                )
                pending_exit = False
                continue
            if head in self._OPENERS:
                depth += 1
            elif head in self._CLOSERS:
                depth = max(0, depth - 1)
            elif head == "if" and words[end - 1] == "then":
                depth += 1  # block If ... Then
            elif head == "end" and second in ("if", "select", "with"):
                depth = max(0, depth - 1)
            elif depth == 0 and head == "exit" and second in ("sub", "function"):
                pending_exit = True


@register_rule
class NoOpArithmetic(Rule):
    """Arithmetic that provably does nothing (``x + 0``, ``y * 1``, ``a = a``)."""

    rule_id = "o4-noop-arithmetic"
    o_class = "O4"
    severity = "info"
    description = "no-op arithmetic padding"

    _IDENTITIES = {"+": "0", "-": "0", "*": "1", "/": "1", "\\": "1", "^": "1"}

    def scan(self, ctx: LintContext):
        kinds = ctx.kinds
        texts = ctx.texts
        words = ctx.words
        bounds = ctx.statement_bounds
        owner = ctx.statement_of
        identifier = TokenKind.IDENTIFIER
        for index in ctx.index.get("=", ()):
            start, end = bounds[owner[index]]
            if (
                end - start == 3
                and index == start + 1
                and kinds[start] is identifier
                and kinds[start + 2] is identifier
                and texts[start].lower() == texts[start + 2].lower()
            ):
                yield self.finding(
                    ctx,
                    start,
                    f"self-assignment {texts[start]!r} = "
                    f"{texts[start + 2]!r} has no effect",
                )
        for index in ctx.positions(*self._IDENTITIES):
            follower = index + 1
            if (
                follower < len(words)
                and owner[follower] == owner[index]
                and kinds[follower] is TokenKind.NUMBER
                and texts[follower] == self._IDENTITIES[words[index]]
            ):
                yield self.finding(
                    ctx, index, f"'{texts[index]} {texts[follower]}' is a no-op"
                )
