"""O3 — encoding obfuscation rules.

Encoding obfuscation transforms string parameters so the payload only
exists after a runtime decode: ``Chr()`` concatenation chains, numeric
``Array(...)`` blobs fed to user-defined decoders, character-decode
loops, hex- and Base64-packed literals, and constant ``Replace()``
marker removal.  Each emitted decoder family from the corpus obfuscator
(and from olevba-class real samples) trips at least one rule here.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.lint.context import LintContext
from repro.lint.registry import Rule, register_rule
from repro.vba.tokens import Token, TokenKind

_CHR_NAMES = ("chr", "chrw", "chrb")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_B64_ALPHABET = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)
#: Words that make a ``Chr()`` argument computed, besides any operator.
_COMPUTING_WORDS = frozenset(("xor", "and", "or", "not", "mod", "("))


def _argument_end(words: list, open_index: int, end: int) -> int:
    """Position of the ``)`` closing the parenthesis at ``open_index``, or
    ``end`` when it stays open before ``end``."""
    depth = 0
    for index in range(open_index, end):
        word = words[index]
        if word == "(":
            depth += 1
        elif word == ")":
            depth -= 1
            if depth == 0:
                return index
    return end


@register_rule
class ChrChain(Rule):
    """Three or more ``Chr(<number>)`` calls in one statement."""

    rule_id = "o3-chr-chain"
    o_class = "O3"
    severity = "high"
    description = "string assembled from a chain of Chr() character codes"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        words = ctx.words
        owner = ctx.statement_of
        current = -1
        first: Token | None = None
        count = 0
        for index in ctx.positions(*_CHR_NAMES):
            number = owner[index]
            if number != current:
                if count >= 3:
                    yield self._chain(ctx, first, count)
                current, first, count = number, None, 0
            if (
                index + 2 < ctx.statement_bounds[number][1]
                and words[index + 1] == "("
                and tokens[index + 2].kind is TokenKind.NUMBER
            ):
                count += 1
                first = first or tokens[index]
        if count >= 3:
            yield self._chain(ctx, first, count)

    def _chain(self, ctx: LintContext, first: Token, count: int):
        return self.finding(
            ctx,
            first,
            f"chain of {count} Chr(<code>) calls assembles a hidden string",
        )


@register_rule
class NumericArray(Rule):
    """``Array(...)`` holding a run of plain numbers — encoded byte data."""

    rule_id = "o3-numeric-array"
    o_class = "O3"
    severity = "medium"
    description = "long all-numeric Array() literal (encoded payload bytes)"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        words = ctx.words
        for index in ctx.index.get("array", ()):
            if index + 1 >= len(tokens) or words[index + 1] != "(":
                continue
            close = _argument_end(words, index + 1, len(tokens))
            body = range(index + 2, close)
            numbers = sum(1 for i in body if tokens[i].kind is TokenKind.NUMBER)
            separators = words[index + 2 : close].count(",")
            if numbers >= 4 and numbers == separators + 1 and len(body) == (
                numbers + separators
            ):
                yield self.finding(
                    ctx,
                    tokens[index],
                    f"Array() of {numbers} plain numbers looks like encoded "
                    "payload bytes",
                )


@register_rule
class DecodeLoop(Rule):
    """A loop body computing characters with ``Chr(<expression>)``.

    ``acc = acc & Chr(src(i) - 105)`` / ``Chr(b Xor key)`` inside a
    For/Do/While loop is the canonical shape of a user-defined decoder.
    Only non-trivial arguments count — ``Chr(65)`` alone is not a decode.
    """

    rule_id = "o3-decode-loop"
    o_class = "O3"
    severity = "high"
    description = "character-decode expression inside a loop"

    def scan(self, ctx: LintContext):
        anchors = ctx.positions(*_CHR_NAMES)
        if not anchors:
            return
        tokens = ctx.significant
        words = ctx.words
        depth = 0
        for start, end in ctx.statement_bounds:
            head = words[start]
            if head in ("for", "do", "while"):
                depth += 1
                continue
            if head in ("next", "loop", "wend"):
                depth = max(0, depth - 1)
                continue
            if depth == 0:
                continue
            first = bisect_left(anchors, start)
            for index in anchors[first : bisect_left(anchors, end - 1, first)]:
                if words[index + 1] != "(":
                    continue
                close = _argument_end(words, index + 1, end)
                if self._is_computed(tokens, words, index + 2, close):
                    yield self.finding(
                        ctx,
                        tokens[index],
                        "Chr() over a computed value inside a loop — "
                        "runtime string decoder",
                    )
                    break

    @staticmethod
    def _is_computed(tokens: list[Token], words: list, start: int, end: int) -> bool:
        if end - start <= 1:
            return False  # bare number / bare name is not a decode
        return any(
            tokens[index].kind is TokenKind.OPERATOR or words[index] in _COMPUTING_WORDS
            for index in range(start, end)
        )


@register_rule
class HexPackedLiteral(Rule):
    """A string literal that is one long run of hex digit pairs."""

    rule_id = "o3-hex-literal"
    o_class = "O3"
    severity = "medium"
    description = "string literal packed as hexadecimal byte pairs"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        for index in ctx.strings:
            token = tokens[index]
            value = token.string_value
            if (
                len(value) >= 8
                and len(value) % 2 == 0
                and all(ch in _HEX_DIGITS for ch in value)
            ):
                yield self.finding(
                    ctx,
                    token,
                    f"{len(value)}-char literal is a pure hex-digit run "
                    f"({len(value) // 2} packed bytes)",
                )


@register_rule
class Base64ShapedLiteral(Rule):
    """A string literal shaped like Base64-encoded data."""

    rule_id = "o3-base64-literal"
    o_class = "O3"
    severity = "medium"
    description = "string literal shaped like Base64 data"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        for index in ctx.strings:
            token = tokens[index]
            value = token.string_value
            stripped = value.rstrip("=")
            if len(value) - len(stripped) > 2:
                continue
            if (
                len(stripped) >= 16
                and len(value) % 4 == 0
                and all(ch in _B64_ALPHABET for ch in stripped)
                and any(ch.islower() for ch in stripped)
                and any(ch.isupper() for ch in stripped)
            ):
                yield self.finding(
                    ctx,
                    token,
                    f"{len(value)}-char literal matches the Base64 shape",
                )


@register_rule
class ReplaceMarkerDecode(Rule):
    """``Replace()`` over three literals — compile-time-constant decoding.

    ``Replace("savteRKtofilteRK", "teRK", "e")`` only makes sense when the
    first literal was deliberately salted; benign code replaces within
    *variables*, not within constants.
    """

    rule_id = "o3-replace-marker"
    o_class = "O3"
    severity = "high"
    description = "Replace() with all-literal arguments strips an inserted marker"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        words = ctx.words
        string = TokenKind.STRING
        for index in ctx.index.get("replace", ()):
            if (
                index + 6 < len(tokens)
                and words[index + 1] == "("
                and tokens[index + 2].kind is string
                and words[index + 3] == ","
                and tokens[index + 4].kind is string
                and words[index + 5] == ","
                and tokens[index + 6].kind is string
            ):
                yield self.finding(
                    ctx,
                    tokens[index],
                    "Replace() over three string literals — marker-decode of "
                    "a constant",
                )
