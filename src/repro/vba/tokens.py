"""Token definitions for the VBA lexer.

The lexer in :mod:`repro.vba.lexer` produces a flat, columnar table of
tokens, and :class:`Token` objects as views of it.  The token taxonomy
follows the lexical grammar of [MS-VBAL] closely enough for static
feature extraction: the paper's features
(Table IV / Table VI) need comments, string literals, identifiers, keywords,
operators and line structure, all of which are first-class token kinds here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenKind(enum.Enum):
    """Lexical category of a :class:`Token`."""

    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    STRING = "string"
    NUMBER = "number"
    DATE = "date"
    OPERATOR = "operator"
    PUNCT = "punct"
    COMMENT = "comment"
    NEWLINE = "newline"
    LINE_CONTINUATION = "line_continuation"
    WHITESPACE = "whitespace"
    UNKNOWN = "unknown"
    EOF = "eof"


@dataclass(frozen=True, slots=True)
class Token:
    """A single lexical token.

    Attributes:
        kind: lexical category.
        text: the exact source text of the token (including delimiters for
            strings and the leading ``'`` / ``Rem`` for comments).
        line: 1-based line number of the first character.
        column: 1-based column number of the first character.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def string_value(self) -> str:
        """Return the decoded value of a STRING token.

        VBA escapes an embedded double quote by doubling it; delimiters are
        stripped.  Raises :class:`ValueError` for non-string tokens.
        """
        if self.kind is not TokenKind.STRING:
            raise ValueError(f"not a string token: {self.kind}")
        return string_value(self.text)

    @property
    def comment_value(self) -> str:
        """Return the body of a COMMENT token without its ``'``/``Rem`` marker."""
        if self.kind is not TokenKind.COMMENT:
            raise ValueError(f"not a comment token: {self.kind}")
        if self.text.startswith("'"):
            return self.text[1:]
        # ``Rem`` comment: drop the marker and one following space if present.
        body = self.text[3:]
        return body[1:] if body.startswith(" ") else body


def string_value(text: str) -> str:
    """The decoded value of a STRING token's text: delimiters stripped
    (an unterminated literal has no closing one), ``""`` unescaped."""
    if text.startswith('"'):
        text = text[1:]
    if text.endswith('"'):
        text = text[:-1]
    return text.replace('""', '"')


# Reserved words of the VBA language, per [MS-VBAL] section 3.3.5.  Keyword
# matching in VBA is case-insensitive; the lexer canonicalizes via ``.lower()``
# before membership tests against this set.
VBA_KEYWORDS: frozenset[str] = frozenset(
    {
        "addressof", "and", "any", "as", "boolean", "byref", "byte", "byval",
        "call", "case", "cbool", "cbyte", "ccur", "cdate", "cdbl", "cdec",
        "cint", "clng", "clnglng", "clngptr", "const", "csng", "cstr", "currency",
        "cvar", "cverr", "date", "debug", "decimal", "declare", "defbool",
        "defbyte", "defcur", "defdate", "defdbl", "defint", "deflng",
        "deflnglng", "deflngptr", "defobj", "defsng", "defstr", "defvar",
        "dim", "do", "double", "each", "else", "elseif", "empty", "end",
        "endif", "enum", "eqv", "erase", "error", "event", "exit", "false",
        "for", "friend", "function", "get", "global", "gosub", "goto", "if",
        "imp", "implements", "in", "integer", "is", "let", "lib", "like",
        "long", "longlong", "longptr", "loop", "lset", "me", "mod", "new",
        "next", "not", "nothing", "null", "object", "on", "option",
        "optional", "or", "paramarray", "preserve", "print", "private",
        "property", "public", "put", "raiseevent", "redim", "rem", "resume",
        "return", "rset", "select", "set", "shared", "single", "spc",
        "static", "step", "stop", "string", "sub", "tab", "then", "to",
        "true", "type", "typeof", "until", "variant", "wend", "while",
        "with", "withevents", "write", "xor",
    }
)

# Operators that concatenate strings in VBA.  ``&`` is the canonical
# concatenation operator; ``+`` concatenates when both operands are strings.
# The paper's feature V5 counts occurrences of string operators including
# ``=`` used in the string-building assignments of split obfuscation.
STRING_CONCAT_OPERATORS: frozenset[str] = frozenset({"&", "+", "="})
