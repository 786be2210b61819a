"""A tokenizer for Visual Basic for Applications source code.

:func:`tokenize` turns a module's source into
:class:`~repro.vba.tokens.Token` objects.  It handles the VBA constructs
that matter for static analysis of macro code:

* ``'`` comments and ``Rem`` statement comments, running to end of line;
* double-quoted string literals with ``""`` escapes;
* numeric literals including ``&H`` hex, ``&O`` octal, exponents and type
  suffixes (``%``, ``&``, ``!``, ``#``, ``@``, ``^``);
* ``#...#`` date literals;
* the ``_`` line continuation (space + underscore + end of line);
* multi-character operators (``<=``, ``>=``, ``<>``, ``:=``).

The scanner is one compiled master regex — a named-group alternation
whose group order is the lexical precedence — driven by ``finditer``;
only words need a Python decision (``Rem``, keyword or identifier).

The scanner is loss-less: concatenating ``token.text`` for all tokens
(including whitespace/newline tokens) reconstructs the input exactly.  Feature
extraction relies on this property to compute exact character counts.
"""

from __future__ import annotations

import re

from repro.vba.tokens import VBA_KEYWORDS, Token, TokenKind

# One alternation, tried left to right at each position; the group order is
# the scanner's precedence.  Character classes are spelled out in ASCII
# (no ``\d``/``\w``, no IGNORECASE): Unicode digits such as ``٣`` and
# letters that case-fold to ASCII (Kelvin ``K``, long ``ſ``) are UNKNOWN.
_MASTER = re.compile(
    r"""
    (?P<NEWLINE>\r\n?|\n)
    # space + ``_`` + optional trailing blanks, then end of line or input
  | (?P<LINE_CONTINUATION>[ \t]+_[ \t]*(?:\r\n?|\n|\Z))
  | (?P<WHITESPACE>[ \t]+)
  | (?P<COMMENT>'[^\r\n]*)
    # ``""`` escapes a quote; an unterminated string stops at end of line
  | (?P<STRING>"[^"\r\n]*(?:""[^"\r\n]*)*"?)
  | (?P<NUMBER>
        (?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[%&!\#@^]?
      | &[hH][0-9a-fA-F]*[&%]?
      | &[oO][0-7]*[&%]?
    )
  | (?P<DATE>\#[0-9/:\- APMapm,]{1,23}\#)
  | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)(?P<SUFFIX>[%&!\#@$])?
  | (?P<OPERATOR><=|>=|<>|:=|[-+*/\\^&=<>])
  | (?P<PUNCT>[().,;:!\#@$%?\[\]{}])
  | (?P<UNKNOWN>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_REST_OF_LINE = re.compile(r"[^\r\n]*")

_KIND_OF_GROUP = {kind.name: kind for kind in TokenKind}

# ``Token`` is a frozen slots dataclass, whose generated ``__init__`` makes
# one ``object.__setattr__`` call per field.  The lexer builds every token
# of every module, so it fills the slots through their descriptors, which
# halves the cost of a token; the result is an ordinary, equal ``Token``.
_new_object = object.__new__
_set_kind, _set_text, _set_line, _set_column = (
    Token.__dict__[name].__set__ for name in ("kind", "text", "line", "column")
)


def _token(kind: TokenKind, text: str, line: int, column: int) -> Token:
    token = _new_object(Token)
    _set_kind(token, kind)
    _set_text(token, text)
    _set_line(token, line)
    _set_column(token, column)
    return token


def tokenize(source: str) -> list[Token]:
    """Tokenize VBA source, returning all tokens including the final EOF.

    Line and column advance only past a NEWLINE token, or a
    LINE_CONTINUATION that ends in CR or LF (one at end of input does not);
    no other token can contain a line break.
    """
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KIND_OF_GROUP
    newline = TokenKind.NEWLINE
    continuation = TokenKind.LINE_CONTINUATION
    keywords = VBA_KEYWORDS
    line = 1
    line_start = 0
    position = 0
    while True:
        # ``finditer`` restarts only after ``Rem`` or a suffixed keyword.
        for match in _MASTER.finditer(source, position):
            start, end = match.span()
            column = start - line_start + 1
            group = match.lastgroup
            if group == "WORD" or group == "SUFFIX":
                # ``Rem`` opens a comment to end of line; a keyword takes no
                # type suffix; an identifier keeps one (``name$``).
                word_end = match.end("WORD")
                word = source[start:word_end].lower()
                if word == "rem":
                    end = _REST_OF_LINE.match(source, word_end).end()
                    append(_token(TokenKind.COMMENT, source[start:end], line, column))
                    break
                if word in keywords:
                    append(_token(TokenKind.KEYWORD, source[start:word_end], line, column))
                    if word_end != end:
                        end = word_end  # scan the suffix character afresh
                        break
                else:
                    append(_token(TokenKind.IDENTIFIER, source[start:end], line, column))
                continue
            kind = kinds[group]
            text = source[start:end]
            append(_token(kind, text, line, column))
            if kind is newline or (kind is continuation and text[-1] in "\r\n"):
                line += 1
                line_start = end
        else:
            break
        position = end
    append(_token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens


def significant_tokens(source: str) -> list[Token]:
    """Tokenize and drop whitespace, newlines, continuations and EOF.

    Comments are kept: several features need them.
    """
    unwanted = {
        TokenKind.WHITESPACE,
        TokenKind.NEWLINE,
        TokenKind.LINE_CONTINUATION,
        TokenKind.EOF,
    }
    return [token for token in tokenize(source) if token.kind not in unwanted]
