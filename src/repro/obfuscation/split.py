"""O2 — Split obfuscation: divide string data (Table I, Fig. 3).

String literals are cut into chunks and reassembled at runtime with the VBA
join operators ``&`` and ``+``.  Optionally, some chunks are hoisted into
module-level ``Public Const`` declarations, exactly as the paper's Fig. 3
example (``pzonda = "a"`` etc.) does.

The transform preserves semantics: evaluating the emitted concatenation
expression yields the original string (property-tested via
:func:`repro.obfuscation.evaluator.evaluate_string_expression`).
"""

from __future__ import annotations

from repro.obfuscation.base import ObfuscationContext
from repro.vba.lexer import lex
from repro.vba.tokens import TokenKind, string_value
from repro.vba.writer import quote_vba_string, wrap_vba_expression


class StringSplitter:
    """Split string literals into ``&``/``+`` joined chunks."""

    category = "O2"

    def __init__(
        self,
        min_length: int = 4,
        chunk_min: int = 1,
        chunk_max: int = 4,
        hoist_const_probability: float = 0.3,
    ) -> None:
        if chunk_min < 1 or chunk_max < chunk_min:
            raise ValueError("invalid chunk bounds")
        self._min_length = min_length
        self._chunk_min = chunk_min
        self._chunk_max = chunk_max
        self._hoist_probability = hoist_const_probability

    def apply(self, source: str, context: ObfuscationContext) -> str:
        table = lex(source)
        string = TokenKind.STRING
        consts: list[tuple[str, str]] = []
        parts: list[str] = []
        for kind, text in zip(table.kinds, table.texts):
            if kind is string:
                value = string_value(text)
                if len(value) >= self._min_length:
                    parts.append(self._split_literal(value, context, consts))
                    continue
            parts.append(text)
        body = "".join(parts)
        if not consts:
            return body
        header = "".join(
            f"Public Const {name} = {quote_vba_string(value)}\n"
            for name, value in consts
        )
        return header + body

    def _split_literal(
        self,
        value: str,
        context: ObfuscationContext,
        consts: list[tuple[str, str]],
    ) -> str:
        rng = context.rng
        chunks: list[str] = []
        position = 0
        while position < len(value):
            size = rng.randint(self._chunk_min, self._chunk_max)
            chunks.append(value[position : position + size])
            position += size
        rendered: list[str] = []
        for chunk in chunks:
            if (
                len(chunk) <= 2
                and rng.random() < self._hoist_probability
            ):
                name = context.fresh_name(6, 10)
                consts.append((name, chunk))
                rendered.append(name)
            else:
                rendered.append(quote_vba_string(chunk))
        operator = "&" if rng.random() < 0.7 else "+"
        # Real obfuscators are sloppy about spacing; varying it keeps
        # whitespace-share statistics from tagging the output.  A tight
        # joiner is only legal between two quoted literals: directly after an
        # identifier, ``&`` would lex as a Long type suffix instead.
        tight = rng.random() < 0.5
        pieces: list[str] = []
        for piece in rendered:
            if not pieces:
                pieces.append(piece)
                continue
            safe_tight = tight and pieces[-1].endswith('"') and piece.startswith('"')
            pieces.append((operator if safe_tight else f" {operator} ") + piece)
        expression = "".join(pieces)
        if len(rendered) > 1:
            return wrap_vba_expression(f"({expression})")
        return expression


class DummyStringInserter:
    """Insert unused dummy string variables, a secondary O2 trait.

    The paper notes split-obfuscated macros "contain many unused dummy
    strings"; this transform adds them so feature V6/V7 see the same signal.
    """

    category = "O2"

    def __init__(self, count_min: int = 2, count_max: int = 8) -> None:
        self._count_min = count_min
        self._count_max = count_max

    def apply(self, source: str, context: ObfuscationContext) -> str:
        rng = context.rng
        count = rng.randint(self._count_min, self._count_max)
        declarations = []
        for _ in range(count):
            name = context.fresh_name(6, 12)
            junk = "".join(
                rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
                for _ in range(rng.randint(8, 40))
            )
            declarations.append(
                f'Private Const {name} As String = "{junk}"\n'
            )
        return "".join(declarations) + source


def split_expression_chunks(expression: str) -> list[str]:
    """Extract the string-literal chunks of a split expression, in order.

    Test helper: the inverse check joins these and compares to the original
    value (const-hoisted chunks are resolved by the evaluator module instead).
    """
    table = lex(expression)
    return [
        string_value(text)
        for kind, text in zip(table.kinds, table.texts)
        if kind is TokenKind.STRING
    ]
