"""O3 — Encoding obfuscation: transform string parameters (Table I, Fig. 4).

Implements the paper's three encoding-obfuscation method families:

1. **built-in VBA functions** — ``Replace()`` marker insertion
   (``"savetofile"`` → ``Replace("savteRKtofilteRK", "teRK", "e")``);
2. **character encoding** — ``Chr()`` concatenation chains;
3. **user-defined functions** — a numeric ``Array(...)`` plus an appended
   decoder procedure (shift or XOR variants), a hex-string decoder, or a
   pure-VBA Base64 decoder.

All emitted decoders are executable by :mod:`repro.vba.interpreter`, which is
how the test-suite proves each encoding round-trips to the original string.
"""

from __future__ import annotations

import base64

from repro.obfuscation.base import ObfuscationContext
from repro.vba.lexer import lex
from repro.vba.tokens import TokenKind, string_value
from repro.vba.writer import CodeWriter, quote_vba_string, wrap_vba_expression

_B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

#: Strategy names accepted by :class:`StringEncoder`.
STRATEGIES = ("replace_marker", "chr_concat", "shift_array", "xor_array", "hex", "base64")


class StringEncoder:
    """Encode string literals with a per-literal randomly chosen strategy."""

    category = "O3"

    def __init__(
        self,
        min_length: int = 4,
        strategies: tuple[str, ...] = STRATEGIES,
        encode_probability: float = 1.0,
    ) -> None:
        unknown = set(strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        if not strategies:
            raise ValueError("at least one strategy required")
        self._min_length = min_length
        self._strategies = strategies
        self._probability = encode_probability

    def apply(self, source: str, context: ObfuscationContext) -> str:
        table = lex(source)
        string = TokenKind.STRING
        helpers = _HelperRegistry(context)
        parts: list[str] = []
        for kind, text in zip(table.kinds, table.texts):
            value = string_value(text) if kind is string else ""
            value_eligible = (
                kind is string
                and len(value) >= self._min_length
                and _is_encodable(value)
                and context.rng.random() < self._probability
            )
            if value_eligible:
                strategy = context.rng.choice(self._strategies)
                encoded = _encode_literal(value, strategy, context, helpers)
                # Guard against ``&`` + identifier fusing into an ``&H…``
                # radix literal when the literal being replaced was tightly
                # joined (``"ab"&"cd"`` → ``...)&hex...``).
                if parts and parts[-1].rstrip()[-1:] in ("&", "+"):
                    encoded = " " + encoded
                parts.append(encoded)
            else:
                parts.append(text)
        return "".join(parts) + helpers.render()


def _is_encodable(value: str) -> bool:
    """Only byte-range text round-trips through Chr()/Asc() encodings."""
    return all(0 < ord(ch) < 256 for ch in value)


class _HelperRegistry:
    """Deduplicates decoder helper functions appended to the module."""

    def __init__(self, context: ObfuscationContext) -> None:
        self._context = context
        self._helpers: dict[tuple, tuple[str, str]] = {}

    def get(self, key: tuple, factory) -> str:
        """Return the helper name for ``key``, creating it via ``factory``."""
        if key not in self._helpers:
            name = self._context.fresh_name(10, 14)
            self._helpers[key] = (name, factory(name))
        return self._helpers[key][0]

    def render(self) -> str:
        if not self._helpers:
            return ""
        blocks = [body for _, body in self._helpers.values()]
        return "\n" + "\n".join(blocks)


def _encode_literal(
    value: str,
    strategy: str,
    context: ObfuscationContext,
    helpers: _HelperRegistry,
) -> str:
    if strategy == "replace_marker":
        return _encode_replace_marker(value, context)
    if strategy == "chr_concat":
        return _encode_chr_concat(value)
    if strategy == "shift_array":
        return _encode_shift_array(value, context, helpers)
    if strategy == "xor_array":
        return _encode_xor_array(value, context, helpers)
    if strategy == "hex":
        return _encode_hex(value, context, helpers)
    if strategy == "base64":
        return _encode_base64(value, context, helpers)
    raise ValueError(f"unknown strategy: {strategy}")


def _chunked_literal(value: str, chunk: int = 48) -> str:
    """Render a long literal as ``("…" & "…")`` concatenation chunks."""
    if len(value) <= chunk:
        return quote_vba_string(value)
    pieces = [
        quote_vba_string(value[i : i + chunk]) for i in range(0, len(value), chunk)
    ]
    return "(" + " & ".join(pieces) + ")"


# ----------------------------------------------------------------------
# Built-in function method: Replace() marker insertion.


def _encode_replace_marker(value: str, context: ObfuscationContext) -> str:
    rng = context.rng
    for _ in range(8):
        # Pick a character present in the value to hide behind a marker.
        target = rng.choice(sorted(set(value)))
        marker = "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
            for _ in range(rng.randint(3, 5))
        )
        # The marker must not already occur in the value, or the runtime
        # Replace() would reconstruct the wrong string.
        if marker in value or target in marker:
            continue
        marked = value.replace(target, marker)
        return (
            f"Replace({quote_vba_string(marked)}, "
            f"{quote_vba_string(marker)}, {quote_vba_string(target)})"
        )
    # Pathological value (e.g. exhausts the marker alphabet): leave it plain.
    return quote_vba_string(value)


# ----------------------------------------------------------------------
# Character-encoding method: Chr() chains.


def _encode_chr_concat(value: str) -> str:
    parts = [f"Chr({ord(ch)})" for ch in value]
    # Tight "&" joints: obfuscator output is machine-generated, not spaced.
    return wrap_vba_expression("(" + "&".join(parts) + ")")


# ----------------------------------------------------------------------
# User-defined-function methods.


def _encode_shift_array(
    value: str, context: ObfuscationContext, helpers: _HelperRegistry
) -> str:
    offset = context.rng.randint(100, 1999)
    name = helpers.get(("shift", offset), lambda n: _shift_decoder(n, offset))
    numbers = ", ".join(str(ord(ch) + offset) for ch in value)
    return wrap_vba_expression(f"{name}(Array({numbers}))")


def _shift_decoder(name: str, offset: int) -> str:
    writer = CodeWriter()
    with writer.block(f"Function {name}(src As Variant) As String", "End Function"):
        writer.line("Dim idx As Long")
        writer.line("Dim acc As String")
        writer.line('acc = ""')
        with writer.block("For idx = LBound(src) To UBound(src)", "Next idx"):
            writer.line(f"acc = acc & Chr(src(idx) - {offset})")
        writer.line(f"{name} = acc")
    return writer.render()


def _encode_xor_array(
    value: str, context: ObfuscationContext, helpers: _HelperRegistry
) -> str:
    key = context.rng.randint(1, 255)
    name = helpers.get(("xor", key), lambda n: _xor_decoder(n, key))
    numbers = ", ".join(str(ord(ch) ^ key) for ch in value)
    return wrap_vba_expression(f"{name}(Array({numbers}))")


def _xor_decoder(name: str, key: int) -> str:
    writer = CodeWriter()
    with writer.block(f"Function {name}(src As Variant) As String", "End Function"):
        writer.line("Dim idx As Long")
        writer.line("Dim acc As String")
        writer.line('acc = ""')
        with writer.block("For idx = LBound(src) To UBound(src)", "Next idx"):
            writer.line(f"acc = acc & Chr(src(idx) Xor {key})")
        writer.line(f"{name} = acc")
    return writer.render()


def _encode_hex(
    value: str, context: ObfuscationContext, helpers: _HelperRegistry
) -> str:
    name = helpers.get(("hex",), _hex_decoder)
    encoded = "".join(f"{ord(ch):02X}" for ch in value)
    return wrap_vba_expression(f"{name}({_chunked_literal(encoded)})")


def _hex_decoder(name: str) -> str:
    writer = CodeWriter()
    with writer.block(f"Function {name}(src As String) As String", "End Function"):
        writer.line("Dim idx As Long")
        writer.line("Dim acc As String")
        writer.line('acc = ""')
        with writer.block("For idx = 1 To Len(src) Step 2", "Next idx"):
            writer.line('acc = acc & Chr(Val("&H" & Mid(src, idx, 2)))')
        writer.line(f"{name} = acc")
    return writer.render()


def _encode_base64(
    value: str, context: ObfuscationContext, helpers: _HelperRegistry
) -> str:
    name = helpers.get(("base64",), _base64_decoder)
    encoded = base64.b64encode(value.encode("latin-1")).decode("ascii")
    return wrap_vba_expression(f"{name}({_chunked_literal(encoded)})")


def _base64_decoder(name: str) -> str:
    """A pure-VBA Base64 decoder, the classic table-driven loop."""
    writer = CodeWriter()
    with writer.block(f"Function {name}(src As String) As String", "End Function"):
        writer.line("Dim table As String")
        writer.line(f'table = "{_B64_ALPHABET}"')
        writer.line("Dim idx As Long")
        writer.line("Dim buffer As Long")
        writer.line("Dim bits As Long")
        writer.line("Dim acc As String")
        writer.line("Dim symbol As String")
        writer.line("Dim code As Long")
        writer.line('acc = ""')
        writer.line("buffer = 0")
        writer.line("bits = 0")
        with writer.block("For idx = 1 To Len(src)", "Next idx"):
            writer.line("symbol = Mid(src, idx, 1)")
            with writer.block('If symbol <> "=" Then', "End If"):
                writer.line("code = InStr(table, symbol) - 1")
                with writer.block("If code >= 0 Then", "End If"):
                    writer.line("buffer = buffer * 64 + code")
                    writer.line("bits = bits + 6")
                    with writer.block("If bits >= 8 Then", "End If"):
                        writer.line("bits = bits - 8")
                        writer.line("acc = acc & Chr((buffer \\ (2 ^ bits)) Mod 256)")
        writer.line(f"{name} = acc")
    return writer.render()
