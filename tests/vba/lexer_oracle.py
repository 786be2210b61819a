"""The character-at-a-time VBA scanner, kept as the reference lexer.

This is the scanner :func:`repro.vba.lexer.tokenize` replaced with one
compiled master regex.  It walks the source one character at a time
through ``_peek``/``_advance`` and is slow, but every rule is spelled out
branch by branch, so the tests compare the production lexer against it
token for token (kind, text, line and column).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.vba.tokens import VBA_KEYWORDS, Token, TokenKind

# Multi-character operators must be matched before their single-character
# prefixes; kept longest-first.
MULTI_CHAR_OPERATORS: tuple[str, ...] = ("<=", ">=", "<>", ":=")

SINGLE_CHAR_OPERATORS: frozenset[str] = frozenset("+-*/\\^&=<>")

PUNCTUATION: frozenset[str] = frozenset("().,;:!#@$%?[]{}")

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_OCT_DIGITS = frozenset("01234567")
_TYPE_SUFFIXES = frozenset("%&!#@^")


class ReferenceLexer:
    """Streaming tokenizer over a VBA source string."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, terminating with an EOF token."""
        while self._pos < len(self._source):
            yield self._next_token()
        yield Token(TokenKind.EOF, "", self._line, self._column)

    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._source):
            return self._source[index]
        return ""

    def _make(self, kind: TokenKind, start: int, line: int, column: int) -> Token:
        return Token(kind, self._source[start : self._pos], line, column)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            char = self._source[self._pos]
            self._pos += 1
            if char == "\n" or (
                char == "\r" and self._peek() != "\n"
            ):  # LF, or a lone CR (classic-Mac line ending)
                self._line += 1
                self._column = 1
            else:
                self._column += 1

    def _next_token(self) -> Token:
        start, line, column = self._pos, self._line, self._column
        char = self._peek()

        if char in ("\r", "\n"):
            self._advance()
            if char == "\r" and self._peek() == "\n":
                self._advance()
            return self._make(TokenKind.NEWLINE, start, line, column)

        if char in (" ", "\t"):
            while self._peek() in (" ", "\t"):
                self._advance()
            # A trailing ``_`` after whitespace, followed by end of line, is a
            # line continuation that splices the next physical line.  Editors
            # routinely leave spaces or tabs after the underscore, so any run
            # of trailing whitespace between ``_`` and the line break is part
            # of the continuation.
            if self._peek() == "_":
                offset = 1
                while self._peek(offset) in (" ", "\t"):
                    offset += 1
                if self._peek(offset) in ("\r", "\n", ""):
                    self._advance()  # the underscore
                    while self._peek() in (" ", "\t"):
                        self._advance()
                    if self._peek() == "\r":
                        self._advance()
                    if self._peek() == "\n":
                        self._advance()
                    return self._make(
                        TokenKind.LINE_CONTINUATION, start, line, column
                    )
            return self._make(TokenKind.WHITESPACE, start, line, column)

        if char == "'":
            return self._scan_line_comment(start, line, column)

        if char == '"':
            return self._scan_string(start, line, column)

        if char in _DIGITS:
            return self._scan_number(start, line, column)

        if char == "&" and self._peek(1).lower() in ("h", "o"):
            return self._scan_radix_number(start, line, column)

        if char == "." and self._peek(1) in _DIGITS:
            return self._scan_number(start, line, column)

        if char == "#" and self._looks_like_date():
            return self._scan_date(start, line, column)

        if char in _IDENT_START:
            return self._scan_word(start, line, column)

        for op in MULTI_CHAR_OPERATORS:
            if self._source.startswith(op, self._pos):
                self._advance(len(op))
                return self._make(TokenKind.OPERATOR, start, line, column)

        if char in SINGLE_CHAR_OPERATORS:
            self._advance()
            return self._make(TokenKind.OPERATOR, start, line, column)

        if char in PUNCTUATION:
            self._advance()
            return self._make(TokenKind.PUNCT, start, line, column)

        self._advance()
        return self._make(TokenKind.UNKNOWN, start, line, column)

    # ------------------------------------------------------------------

    def _scan_line_comment(self, start: int, line: int, column: int) -> Token:
        while self._peek() not in ("\r", "\n", ""):
            self._advance()
        return self._make(TokenKind.COMMENT, start, line, column)

    def _scan_string(self, start: int, line: int, column: int) -> Token:
        self._advance()  # opening quote
        while True:
            char = self._peek()
            if char == "":
                break  # unterminated string: tolerate, common in broken code
            if char in ("\r", "\n"):
                break  # VBA strings cannot span lines
            if char == '"':
                if self._peek(1) == '"':
                    self._advance(2)
                    continue
                self._advance()
                break
            self._advance()
        return self._make(TokenKind.STRING, start, line, column)

    def _scan_number(self, start: int, line: int, column: int) -> Token:
        while self._peek() in _DIGITS:
            self._advance()
        if self._peek() == "." and self._peek(1) in _DIGITS:
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        if self._peek().lower() == "e" and (
            self._peek(1) in _DIGITS
            or (self._peek(1) in "+-" and self._peek(2) in _DIGITS)
        ):
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        if self._peek() in _TYPE_SUFFIXES:
            self._advance()
        return self._make(TokenKind.NUMBER, start, line, column)

    def _scan_radix_number(self, start: int, line: int, column: int) -> Token:
        radix = self._peek(1).lower()
        digits = _HEX_DIGITS if radix == "h" else _OCT_DIGITS
        self._advance(2)
        while self._peek() in digits:
            self._advance()
        if self._peek() in ("&", "%"):
            self._advance()
        return self._make(TokenKind.NUMBER, start, line, column)

    def _looks_like_date(self) -> bool:
        """Heuristically decide whether ``#`` opens a date literal.

        A date literal looks like ``#1/2/2016#`` or ``#12:30 PM#`` — a short
        run of date-ish characters terminated by ``#`` on the same line.
        """
        index = self._pos + 1
        length = 0
        while index < len(self._source) and length < 24:
            char = self._source[index]
            if char == "#":
                return length > 0
            if char in ("\r", "\n"):
                return False
            if char not in "0123456789/:- APMapm,":
                return False
            index += 1
            length += 1
        return False

    def _scan_date(self, start: int, line: int, column: int) -> Token:
        self._advance()  # opening '#'
        while self._peek() not in ("#", "\r", "\n", ""):
            self._advance()
        if self._peek() == "#":
            self._advance()
        return self._make(TokenKind.DATE, start, line, column)

    def _scan_word(self, start: int, line: int, column: int) -> Token:
        while self._peek() in _IDENT_CONT:
            self._advance()
        word = self._source[start : self._pos].lower()
        if word == "rem":
            # ``Rem`` introduces a comment running to end of line.
            while self._peek() not in ("\r", "\n", ""):
                self._advance()
            return self._make(TokenKind.COMMENT, start, line, column)
        if word in VBA_KEYWORDS:
            return self._make(TokenKind.KEYWORD, start, line, column)
        # An identifier may carry a type suffix (``count%``, ``name$``).
        if self._peek() in "%&!#@$":
            self._advance()
        return self._make(TokenKind.IDENTIFIER, start, line, column)


def reference_tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` with the reference scanner, EOF included."""
    return list(ReferenceLexer(source).tokens())
