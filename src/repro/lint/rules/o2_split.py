"""O2 — string-splitting obfuscation rules.

Split obfuscation carves string data into fragments reassembled at
runtime: back-to-back literal concatenation (``"pow" & "ers" & "hell"``),
one- and two-character fragments hoisted into module constants, unused
dummy string declarations, and ``Mid``/``Left``/``Right``/``StrReverse``
carving over literals.  Benign code has no reason to write any of these —
a constant expression is always written as one literal.
"""

from __future__ import annotations

from repro.lint.context import LintContext
from repro.lint.registry import Rule, register_rule
from repro.vba.tokens import TokenKind

_CONCAT = ("&", "+")


@register_rule
class LiteralConcatenation(Rule):
    """Adjacent *short* string literals joined with ``&``/``+``.

    Benign code concatenates literals too — multi-line SQL, path joining
    (``basePath & "\\" & "data.xlsx"``) — but those fragments are readable
    words.  Split obfuscators carve strings into 1–4 character chunks, so
    the rule demands at least one adjacent pair where *both* literals are
    that short: ``"pow" & "ers" & "hell"`` fires, readable joins do not.
    A chain is a maximal ``literal (op literal)+`` run inside one
    statement; the scan visits only string literals.
    """

    rule_id = "o2-literal-concat"
    o_class = "O2"
    severity = "medium"
    description = "short string fragments concatenated back-to-back"

    _MAX_FRAGMENT = 4

    def scan(self, ctx: LintContext):
        kinds = ctx.kinds
        values = ctx.values
        words = ctx.words
        owner = ctx.statement_of
        string = TokenKind.STRING
        last = len(words) - 1

        def joins(index: int) -> bool:
            """A concat operator then a literal follow ``index`` in its statement."""
            return (
                index + 2 <= last
                and words[index + 1] in _CONCAT
                and kinds[index + 2] is string
                and owner[index + 2] == owner[index]
            )

        for index in ctx.strings:
            if not joins(index) or (
                index >= 2 and kinds[index - 2] is string and joins(index - 2)
            ):
                continue  # no chain here, or the middle of an earlier one
            literals = [values[index], values[index + 2]]
            end = index + 2
            while joins(end):
                literals.append(values[end + 2])
                end += 2
            short_pair = any(
                len(a) <= self._MAX_FRAGMENT and len(b) <= self._MAX_FRAGMENT
                for a, b in zip(literals, literals[1:])
            )
            if short_pair:
                yield self.finding(
                    ctx,
                    index,
                    f"{len(literals)} string literals concatenated "
                    "back-to-back from short fragments (split-string "
                    "reassembly)",
                )


@register_rule
class FragmentConstant(Rule):
    """A module constant holding a one- or two-character string fragment."""

    rule_id = "o2-fragment-const"
    o_class = "O2"
    severity = "medium"
    description = "Const holds a tiny string fragment of a split literal"

    def scan(self, ctx: LintContext):
        texts = ctx.texts
        for name, value in ctx.const_declarations:
            text = ctx.values[value]
            if 0 < len(text) <= 2:
                yield self.finding(
                    ctx,
                    name,
                    f"constant {texts[name]!r} holds the "
                    f"{len(text)}-char fragment {text!r}",
                )


@register_rule
class DummyStringConstant(Rule):
    """A string constant that nothing in the module ever reads.

    The paper notes split-obfuscated macros 'contain many unused dummy
    strings'; obfuscators pad modules with them to skew string statistics.
    """

    rule_id = "o2-dummy-string"
    o_class = "O2"
    severity = "low"
    description = "unused dummy string constant"

    def scan(self, ctx: LintContext):
        texts = ctx.texts
        for name, value in ctx.const_declarations:
            if len(ctx.values[value]) < 3:
                continue  # fragments are the other rule's business
            if ctx.use_counts.get(texts[name].lower(), 0) == 0:
                yield self.finding(
                    ctx,
                    name,
                    f"string constant {texts[name]!r} is never read "
                    "(dummy string)",
                )


@register_rule
class CarvedLiteral(Rule):
    """``Mid``/``Left``/``Right``/``StrReverse`` applied to a string literal.

    Carving characters out of a literal at runtime (or reversing one) is
    a split idiom: the value being hidden exists only after the call.
    """

    rule_id = "o2-carved-literal"
    o_class = "O2"
    severity = "medium"
    description = "substring/reverse call carves data out of a string literal"

    _CARVERS = ("mid", "left", "right", "strreverse")

    def scan(self, ctx: LintContext):
        kinds = ctx.kinds
        words = ctx.words
        for index in ctx.positions(*self._CARVERS):
            if (
                index + 2 < len(words)
                and words[index + 1] == "("
                and kinds[index + 2] is TokenKind.STRING
            ):
                yield self.finding(
                    ctx,
                    index,
                    f"{ctx.texts[index]}() carves data out of a string literal "
                    "at runtime",
                )
