"""A tokenizer for Visual Basic for Applications source code.

:func:`lex` turns a module's source into a :class:`TokenTable` of parallel
columns (kind, text, line, column, word); :func:`tokenize` returns the same
tokens as :class:`~repro.vba.tokens.Token` views.  It handles the VBA constructs
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

The scanner is loss-less: concatenating the texts of all tokens
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

#: Positions the parser never reads, and the only ones that get no view on
#: an analysis path: everything else (NEWLINE and EOF included) is a
#: "code" position.  A tuple: ``in`` compares members by identity, where a
#: set would call ``Enum.__hash__`` in Python for every token.
LAYOUT_KINDS = (TokenKind.WHITESPACE, TokenKind.COMMENT, TokenKind.LINE_CONTINUATION)

# ``Token`` is a frozen slots dataclass, whose generated ``__init__`` makes
# one ``object.__setattr__`` call per field.  Views fill the slots through
# their descriptors instead, which halves the cost of a token; the result
# is an ordinary, equal ``Token``.
_new_object = object.__new__
_set_kind, _set_text, _set_line, _set_column = (
    Token.__dict__[name].__set__ for name in ("kind", "text", "line", "column")
)


def _token(kind: TokenKind, text: str, line: int, column: int) -> Token:
    """Build one :class:`Token` view: the only place views are made."""
    token = _new_object(Token)
    _set_kind(token, kind)
    _set_text(token, text)
    _set_line(token, line)
    _set_column(token, column)
    return token


class TokenTable:
    """One module's tokens as parallel columns, EOF included.

    ``kinds``, ``texts``, ``lines`` and ``columns`` hold what a
    :class:`Token` holds; ``words`` holds the lower-cased name without its
    type suffix for an IDENTIFIER or KEYWORD and ``None`` otherwise.
    Consumers that only need kinds and texts walk the columns; the ones
    that need objects (the parser, the lint rules, the interpreters) ask
    for views, which are built at most once per position.
    """

    __slots__ = ("kinds", "texts", "lines", "columns", "words", "_tokens", "_code")

    def __init__(
        self,
        kinds: list[TokenKind],
        texts: list[str],
        lines: list[int],
        columns: list[int],
        words: list[str | None],
    ) -> None:
        self.kinds = kinds
        self.texts = texts
        self.lines = lines
        self.columns = columns
        self.words = words
        self._tokens: list[Token] | None = None
        self._code: list[Token] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenTable):
            return NotImplemented
        return (
            self.kinds == other.kinds
            and self.texts == other.texts
            and self.lines == other.lines
            and self.columns == other.columns
        )

    def tokens(self) -> list[Token]:
        """Every position as a :class:`Token` view, built on first call."""
        if self._tokens is None:
            self._tokens = list(
                map(_token, self.kinds, self.texts, self.lines, self.columns)
            )
        return self._tokens

    def code_tokens(self) -> list[Token]:
        """Views of the code positions (all but whitespace, comments and
        continuations), built on first call: the parser's token stream,
        shared by every parse and the lint context of one macro."""
        if self._code is None:
            view = _token
            layout = LAYOUT_KINDS
            self._code = [
                view(kind, text, line, column)
                for kind, text, line, column in zip(
                    self.kinds, self.texts, self.lines, self.columns
                )
                if kind not in layout
            ]
        return self._code


def lex(source: str) -> TokenTable:
    """Tokenize VBA source into a :class:`TokenTable`, EOF included.

    Line and column advance only past a NEWLINE token, or a
    LINE_CONTINUATION that ends in CR or LF (one at end of input does not);
    no other token can contain a line break.
    """
    kinds: list[TokenKind] = []
    texts: list[str] = []
    lines: list[int] = []
    columns: list[int] = []
    words: list[str | None] = []
    add_kind = kinds.append
    add_text = texts.append
    add_line = lines.append
    add_column = columns.append
    add_word = words.append
    kind_of = _KIND_OF_GROUP
    newline = TokenKind.NEWLINE
    continuation = TokenKind.LINE_CONTINUATION
    keyword = TokenKind.KEYWORD
    identifier = TokenKind.IDENTIFIER
    comment = TokenKind.COMMENT
    keywords = VBA_KEYWORDS
    # One word object per distinct name: a name recurs throughout a
    # module, and the table keeps every word it holds.
    spelled = {}
    same_word = spelled.setdefault
    line = 1
    line_start = 0
    position = 0
    while True:
        # ``finditer`` restarts only after ``Rem`` or a suffixed keyword.
        for match in _MASTER.finditer(source, position):
            start, end = match.span()
            add_line(line)
            add_column(start - line_start + 1)
            group = match.lastgroup
            if group == "WORD" or group == "SUFFIX":
                # ``Rem`` opens a comment to end of line; a keyword takes no
                # type suffix; an identifier keeps one (``name$``).
                word_end = match.end("WORD")
                word = source[start:word_end].lower()
                if word == "rem":
                    end = _REST_OF_LINE.match(source, word_end).end()
                    add_kind(comment)
                    add_text(source[start:end])
                    add_word(None)
                    break
                add_word(same_word(word, word))
                if word in keywords:
                    add_kind(keyword)
                    add_text(source[start:word_end])
                    if word_end != end:
                        end = word_end  # scan the suffix character afresh
                        break
                else:
                    add_kind(identifier)
                    add_text(source[start:end])
                continue
            kind = kind_of[group]
            text = source[start:end]
            add_kind(kind)
            add_text(text)
            add_word(None)
            if kind is newline or (kind is continuation and text[-1] in "\r\n"):
                line += 1
                line_start = end
        else:
            break
        position = end
    add_kind(TokenKind.EOF)
    add_text("")
    add_line(line)
    add_column(len(source) - line_start + 1)
    add_word(None)
    return TokenTable(kinds, texts, lines, columns, words)


def tokenize(source: str) -> list[Token]:
    """Tokenize VBA source, returning all tokens including the final EOF:
    the :class:`Token` views of :func:`lex`'s table."""
    return lex(source).tokens()


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
