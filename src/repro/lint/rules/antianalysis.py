"""AA — anti-analysis technique rules (the paper's §VI.B catalog).

Three detectors on the shared rule registry, so anti-analysis tricks
surface in the same findings stream as O1–O4 obfuscation; ``repro scan``
lists their ids per macro under ``anti_analysis``.  Matching is
token-based rather than regex-over-raw-source, so ``Timer`` or
``GetTickCount`` inside string literals, comments, or as substrings of
longer identifiers (``MyTimer``) is not a finding.
"""

from __future__ import annotations

import re

from repro.lint.context import LintContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule
from repro.vba.tokens import TokenKind

_USERFORM = re.compile(r"userform\d*\Z")

#: Storage-read members that return data when *called* (need a ``(``).
_CALL_MEMBERS = ("variables", "customdocumentproperties")
#: Storage-read members that hide data in plain control properties.
_PROPERTY_MEMBERS = ("caption", "controltiptext", "tag")

#: Keywords that make a statement a guard condition.
_CONDITION_KEYWORDS = ("if", "elseif", "while", "until")
#: Words a sandbox probe starts at (see ``FlowEvasionGuard._is_probe``).
_PROBE_ANCHORS = frozenset(
    ("gettickcount", "timer", "recentfiles", "windows", ".", "environ")
)


@register_rule
class HiddenStringRead(Rule):
    """Payload strings read from document storage instead of literals.

    Document variables, custom document properties, and control captions
    (Fig. 8(a) and [MS-OFORMS]) let a macro keep its strings out of the
    module text entirely; any such read is worth surfacing.  The scan
    starts at ``.`` tokens and ``UserForm<n>`` names.
    """

    rule_id = "aa-hidden-strings"
    o_class = "AA"
    severity = "high"
    description = "string data read from document storage instead of a literal"

    def scan(self, ctx: LintContext):
        kinds = ctx.kinds
        texts = ctx.texts
        words = ctx.words
        last = len(words) - 1
        for index in ctx.index.get(".", ()):
            if index >= last:
                continue
            member = words[index + 1]
            if member in _CALL_MEMBERS and index + 2 <= last and words[index + 2] == "(":
                yield self._read(ctx, index, f".{texts[index + 1]}(")
            elif member in _PROPERTY_MEMBERS:
                yield self._read(ctx, index, f".{texts[index + 1]}")
        for word, positions in ctx.index.items():
            if not word.startswith("userform"):
                continue
            for index in positions:
                if (
                    kinds[index] is TokenKind.IDENTIFIER
                    and _USERFORM.match(texts[index].lower())
                    and index + 2 <= last
                    and words[index + 1] == "."
                    and kinds[index + 2] in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
                ):
                    yield self._read(
                        ctx, index, f"{texts[index]}.{texts[index + 2]}"
                    )

    def _read(self, ctx: LintContext, position: int, expr: str) -> Finding:
        return self.finding(ctx, position, f"document-storage read: {expr!r}")


@register_rule
class BrokenCodeShadow(Rule):
    """Fig. 8(b): unparseable code shadowed by an early ``Exit``.

    The signature is an ``Exit Sub``/``Exit Function`` followed by
    statements (before ``End Sub``) that the strict parser rejects while
    the prefix up to the exit parses fine — broken junk that never runs
    but crashes naive parsers.  The strict parser's error is the first one
    the macro's cached tolerant parse got past
    (:meth:`~repro.vba.analyzer.MacroAnalysis.ensure_parse`); nesting too
    deep to parse leaves no error, and the rule silent.
    """

    rule_id = "aa-broken-code"
    o_class = "AA"
    severity = "high"
    description = "unparseable statements hidden behind an early Exit"

    def scan(self, ctx: LintContext):
        words = ctx.words
        exits = [
            index
            for index in ctx.index.get("exit", ())
            if index + 1 < len(words) and words[index + 1] in ("sub", "function")
        ]
        if not exits:
            return
        error = ctx.analysis.ensure_parse().error
        if error is None:
            return  # everything parses: nothing broken after the exit
        for index in exits:
            exit_line = ctx.lines[index]
            if error.line > exit_line:
                yield Finding(
                    rule_id=self.rule_id,
                    o_class=self.o_class,
                    severity=self.severity,
                    line=error.line,
                    span=(1, max(2, len(ctx.line_text(error.line)) + 1)),
                    message=(
                        f"unparseable statement at line {error.line} is "
                        f"shadowed by Exit at line {exit_line}: {error}"
                    ),
                    evidence=ctx.line_text(error.line),
                )
                return


@register_rule
class FlowEvasionGuard(Rule):
    """Sandbox-evasion guards wrapping the payload (§VI.B.3 and [45]).

    Fires only when the environment probe sits in a *condition* statement
    (``If``/``ElseIf``/``While``/``Until``) — reading ``Environ`` into a
    variable is ordinary code, branching on it is evasion.  Only the
    statements holding a condition keyword are visited.
    """

    rule_id = "aa-flow-evasion"
    o_class = "AA"
    severity = "high"
    description = "environment-check guard around macro logic"

    def scan(self, ctx: LintContext):
        owner = ctx.statement_of
        guarded = sorted(
            {owner[index] for index in ctx.positions(*_CONDITION_KEYWORDS)}
        )
        words = ctx.words
        for number in guarded:
            start, end = ctx.statement_bounds[number]
            for index in range(start, end):
                if words[index] in _PROBE_ANCHORS and self._is_probe(
                    ctx, start, end, index
                ):
                    yield self.finding(
                        ctx,
                        index,
                        "environment-check guard: "
                        f"{ctx.line_text(ctx.lines[index])!r}",
                    )

    @staticmethod
    def _is_probe(ctx: LintContext, start: int, end: int, index: int) -> bool:
        words = ctx.words
        word = words[index]
        nxt = words[index + 1] if index + 1 < end else None
        nxt2 = words[index + 2] if index + 2 < end else None

        # GetTickCount / Timer used as a bare timing probe.
        if word in ("gettickcount", "timer"):
            return True
        # RecentFiles.Count
        if word == "recentfiles":
            return nxt == "." and nxt2 == "count"
        # Application.Windows.Count — anchor on the Windows member.
        if word == "windows":
            return (
                index - 2 >= start
                and words[index - 1] == "."
                and words[index - 2] == "application"
                and nxt == "."
                and nxt2 == "count"
            )
        # .MousePointer sandbox probe.
        if word == ".":
            return nxt == "mousepointer"
        # Environ("USERNAME") / Environ("COMPUTERNAME")
        return (
            nxt == "("
            and index + 2 < end
            and ctx.kinds[index + 2] is TokenKind.STRING
            and ctx.values[index + 2].upper() in ("USERNAME", "COMPUTERNAME")
        )
