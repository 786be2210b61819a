"""AA — anti-analysis technique rules (the paper's §VI.B catalog).

These port the three :mod:`repro.detect.antianalysis` detectors onto the
shared rule registry so anti-analysis tricks surface in the same findings
stream as O1–O4 obfuscation.  Matching is token-based rather than
regex-over-raw-source, which fixes the historical false positives on
``Timer``/``GetTickCount`` appearing inside string literals, comments, or
as substrings of longer identifiers (``MyTimer``).

:mod:`repro.detect.antianalysis` re-exposes these rules under its original
``scan_macro`` API, so both entry points share one implementation.
"""

from __future__ import annotations

import re

from repro.lint.context import (
    LintContext,
    is_keyword,
    is_name,
    is_punct,
)
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule
from repro.vba.parser import VBAParseError, parse_module
from repro.vba.tokens import Token, TokenKind

_USERFORM = re.compile(r"userform\d*\Z")

#: Storage-read members that return data when *called* (need a ``(``).
_CALL_MEMBERS = ("variables", "customdocumentproperties")
#: Storage-read members that hide data in plain control properties.
_PROPERTY_MEMBERS = ("caption", "controltiptext", "tag")

#: Keywords that make a statement a guard condition.
_CONDITION_KEYWORDS = ("if", "elseif", "while", "until")


@register_rule
class HiddenStringRead(Rule):
    """Payload strings read from document storage instead of literals.

    Document variables, custom document properties, and control captions
    (Fig. 8(a) and [MS-OFORMS]) let a macro keep its strings out of the
    module text entirely; any such read is worth surfacing.
    """

    rule_id = "aa-hidden-strings"
    o_class = "AA"
    severity = "high"
    description = "string data read from document storage instead of a literal"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        for index, token in enumerate(tokens):
            nxt = tokens[index + 1] if index + 1 < len(tokens) else None
            nxt2 = tokens[index + 2] if index + 2 < len(tokens) else None
            if is_punct(token, ".") and nxt is not None:
                if is_name(nxt, *_CALL_MEMBERS) and nxt2 is not None and is_punct(
                    nxt2, "("
                ):
                    yield self._read(ctx, token, f".{nxt.text}(")
                elif is_name(nxt, *_PROPERTY_MEMBERS):
                    yield self._read(ctx, token, f".{nxt.text}")
            elif (
                token.kind is TokenKind.IDENTIFIER
                and _USERFORM.match(token.text.lower())
                and nxt is not None
                and is_punct(nxt, ".")
                and nxt2 is not None
                and nxt2.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
            ):
                yield self._read(ctx, token, f"{token.text}.{nxt2.text}")

    def _read(self, ctx: LintContext, token: Token, expr: str) -> Finding:
        return self.finding(ctx, token, f"document-storage read: {expr!r}")


@register_rule
class BrokenCodeShadow(Rule):
    """Fig. 8(b): unparseable code shadowed by an early ``Exit``.

    The signature is an ``Exit Sub``/``Exit Function`` followed by
    statements (before ``End Sub``) that the strict parser rejects while
    the prefix up to the exit parses fine — broken junk that never runs
    but crashes naive parsers.
    """

    rule_id = "aa-broken-code"
    o_class = "AA"
    severity = "high"
    description = "unparseable statements hidden behind an early Exit"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        exit_lines = [
            token.line
            for index, token in enumerate(tokens[:-1])
            if is_keyword(token, "exit")
            and tokens[index + 1].text.lower() in ("sub", "function")
        ]
        if not exit_lines:
            return
        try:
            parse_module(ctx.analysis.source, tokens=ctx.analysis.tokens)
            return  # everything parses: nothing broken after the exit
        except VBAParseError as error:
            for exit_line in exit_lines:
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
    variable is ordinary code, branching on it is evasion.
    """

    rule_id = "aa-flow-evasion"
    o_class = "AA"
    severity = "high"
    description = "environment-check guard around macro logic"

    def scan(self, ctx: LintContext):
        for statement in ctx.statements:
            if not any(
                is_keyword(token, *_CONDITION_KEYWORDS) for token in statement
            ):
                continue
            for index, token in enumerate(statement):
                if self._is_probe(statement, index):
                    yield self.finding(
                        ctx,
                        token,
                        "environment-check guard: "
                        f"{ctx.line_text(token.line)!r}",
                    )

    @staticmethod
    def _is_probe(statement: list[Token], index: int) -> bool:
        token = statement[index]
        nxt = statement[index + 1] if index + 1 < len(statement) else None
        nxt2 = statement[index + 2] if index + 2 < len(statement) else None

        # GetTickCount / Timer used as a bare timing probe.
        if is_name(token, "gettickcount", "timer"):
            return True
        # RecentFiles.Count
        if (
            is_name(token, "recentfiles")
            and nxt is not None
            and is_punct(nxt, ".")
            and nxt2 is not None
            and is_name(nxt2, "count")
        ):
            return True
        # Application.Windows.Count — anchor on the Windows member.
        if (
            is_name(token, "windows")
            and index >= 2
            and is_punct(statement[index - 1], ".")
            and is_name(statement[index - 2], "application")
            and nxt is not None
            and is_punct(nxt, ".")
            and nxt2 is not None
            and is_name(nxt2, "count")
        ):
            return True
        # .MousePointer sandbox probe.
        if (
            is_punct(token, ".")
            and nxt is not None
            and is_name(nxt, "mousepointer")
        ):
            return True
        # Environ("USERNAME") / Environ("COMPUTERNAME")
        if (
            is_name(token, "environ")
            and nxt is not None
            and is_punct(nxt, "(")
            and nxt2 is not None
            and nxt2.kind is TokenKind.STRING
            and nxt2.string_value.upper() in ("USERNAME", "COMPUTERNAME")
        ):
            return True
        return False
