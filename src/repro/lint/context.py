"""Shared per-module scan state handed to every lint rule.

Rules all walk the same :class:`~repro.vba.analyzer.MacroAnalysis`
substrate.  The :class:`LintContext` builds, once per macro and in one
pass over the lexer's token columns, the views they jump through instead
of re-walking the stream:

* ``significant`` — the tokens with layout, comments and EOF dropped;
* ``words`` — a column parallel to ``significant``: the lower-cased,
  suffix-stripped text of a name, the text of punctuation or an operator,
  ``None`` for literals;
* ``index`` — each word's ascending ``significant`` positions, so a rule
  starts at its anchor tokens (``Mid``, ``.``, ``Exit``) and tests their
  neighbours through ``words``;
* ``statement_bounds`` — the ``[start, end)`` positions of each logical
  statement, with ``statement_of`` mapping a position back to its
  statement.

Derivations that several rules share (``Const`` declarations, procedure
headers, ``Dim`` names) are memoized here too, so a full rule sweep is one
lex pass, one column pass, and anchor lookups.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from heapq import merge
from typing import TYPE_CHECKING

from repro.vba.analyzer import MacroAnalysis
from repro.vba.tokens import Token, TokenKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.sa.records import StringRecovery

_NAME_KINDS = (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
_TYPE_SUFFIXES = "%&!#@$"

#: ReDoS / pathological-line guard: the longest physical-line prefix any
#: rule gets to scan.  Hostile macros pack megabytes onto one line (a
#: whole payload in one concatenation chain); rules that re-scan line text
#: must stay O(cap), not O(line).  4 KiB comfortably covers every line a
#: human or a legitimate generator writes.
MAX_LINE_SCAN_CHARS = 4096


def is_name(token: Token, *names: str) -> bool:
    """True when the token is an identifier/keyword matching one of ``names``.

    Matching is case-insensitive and ignores a VBA type suffix
    (``Mid$`` matches ``mid``).
    """
    if token.kind not in _NAME_KINDS:
        return False
    text = token.text.lower()
    if text and text[-1] in _TYPE_SUFFIXES:
        text = text[:-1]
    return text in names


def is_keyword(token: Token, *words: str) -> bool:
    return token.kind is TokenKind.KEYWORD and token.text.lower() in words


def is_punct(token: Token, text: str) -> bool:
    return token.kind is TokenKind.PUNCT and token.text == text


def is_operator(token: Token, *texts: str) -> bool:
    return token.kind is TokenKind.OPERATOR and token.text in texts


def token_span(token: Token) -> tuple[int, int]:
    """The 1-based ``[start, end)`` column span of a token on its line."""
    return (token.column, token.column + len(token.text))


class LintContext:
    """Cached views over one macro's analysis, shared across all rules.

    Word equality stands in for the ``is_*`` predicates: the lexer makes
    every reserved word a KEYWORD (never suffixed) and every other name an
    IDENTIFIER, and punctuation and operator texts are disjoint symbol
    sets, so ``words[i] == "exit"`` is ``is_keyword(tok, "exit")``,
    ``words[i] == "("`` is ``is_punct(tok, "(")`` and ``words[i] == "mid"``
    is ``is_name(tok, "mid")``.
    """

    def __init__(
        self,
        analysis: MacroAnalysis,
        recovery: "StringRecovery | None" = None,
    ) -> None:
        self.analysis = analysis
        #: statically recovered strings from the engine's RecoverStage;
        #: ``None`` when the recover pass did not run (the SA rules then
        #: stay silent)
        self.recovery = recovery

    @cached_property
    def _columns(
        self,
    ) -> tuple[list[Token], list[str | None], list[tuple[int, int]], list[int]]:
        """One pass over the lexer's columns: significant tokens, words,
        statement bounds, strings.

        Names take their word from the table's ``words`` column;
        punctuation and operators their text.  The ``significant`` tokens
        are the table's shared code-position views (the parser reads the
        same objects), so the context makes no token of its own.

        Statements break on newlines and on ``:`` separators outside
        parentheses (``DoEvents: i = i + 1`` is two statements); the
        parenthesis depth carries across lines.  Line continuations were
        already spliced by the lexer, so a continued statement arrives as
        one group.
        """
        table = self.analysis.table
        views = table.code_tokens()
        significant: list[Token] = []
        words: list[str | None] = []
        bounds: list[tuple[int, int]] = []
        strings: list[int] = []
        keep = significant.append
        word_of = words.append
        whitespace = TokenKind.WHITESPACE
        punct = TokenKind.PUNCT
        identifier = TokenKind.IDENTIFIER
        newline = TokenKind.NEWLINE
        keyword = TokenKind.KEYWORD
        operator = TokenKind.OPERATOR
        string = TokenKind.STRING
        layout = (TokenKind.LINE_CONTINUATION, TokenKind.COMMENT)
        eof = TokenKind.EOF
        view = -1  # position in ``views`` of the current code token
        start = depth = 0
        # Branches in order of token frequency in real macros.
        for kind, text, word in zip(table.kinds, table.texts, table.words):
            if kind is whitespace:
                continue
            if kind is punct:
                view += 1
                word = text
                if word == "(":
                    depth += 1
                elif word == ")":
                    if depth:
                        depth -= 1
                elif word == ":" and not depth:
                    end = len(significant)
                    if end > start:
                        bounds.append((start, end))
                    start = end + 1
            elif kind is identifier or kind is keyword:
                view += 1
            elif kind is newline:
                view += 1
                end = len(significant)
                if end > start:
                    bounds.append((start, end))
                start = end
                continue
            elif kind is operator:
                view += 1
                word = text
            elif kind in layout:
                continue
            elif kind is eof:
                break
            else:
                view += 1
                if kind is string:
                    strings.append(len(significant))
            keep(views[view])
            word_of(word)
        end = len(significant)
        if end > start:
            bounds.append((start, end))
        return significant, words, bounds, strings

    @property
    def significant(self) -> list[Token]:
        """Tokens with whitespace, continuations, comments and EOF dropped."""
        return self._columns[0]

    @property
    def words(self) -> list[str | None]:
        """Per ``significant`` position: the name (lower-cased, type suffix
        dropped), the punctuation or operator text, or ``None``."""
        return self._columns[1]

    @property
    def statement_bounds(self) -> list[tuple[int, int]]:
        """``[start, end)`` ``significant`` positions of each logical
        statement, in order; separator ``:`` tokens fall between them."""
        return self._columns[2]

    @property
    def strings(self) -> list[int]:
        """Ascending ``significant`` positions of the string literals."""
        return self._columns[3]

    @cached_property
    def statements(self) -> list[list[Token]]:
        """Significant tokens grouped into logical statements."""
        significant = self.significant
        return [significant[start:end] for start, end in self.statement_bounds]

    @cached_property
    def statement_of(self) -> list[int]:
        """Per ``significant`` position, the number of its statement
        (``-1`` for a separating ``:``)."""
        owner = [-1] * len(self.significant)
        for number, (start, end) in enumerate(self.statement_bounds):
            owner[start:end] = [number] * (end - start)
        return owner

    @cached_property
    def index(self) -> dict[str, list[int]]:
        """Each word's ascending ``significant`` positions."""
        positions: defaultdict[str | None, list[int]] = defaultdict(list)
        for position, word in enumerate(self.words):
            positions[word].append(position)
        positions.pop(None, None)
        return dict(positions)

    def positions(self, *words: str) -> list[int]:
        """Ascending ``significant`` positions of any of ``words``."""
        index = self.index
        hits = [index[word] for word in words if word in index]
        if len(hits) == 1:
            return hits[0]
        return list(merge(*hits))

    @cached_property
    def use_counts(self) -> dict[str, int]:
        """Lower-cased identifier-use counts (declaration sites excluded)."""
        counts: dict[str, int] = {}
        for name in self.analysis.identifier_uses:
            key = name.lower()
            counts[key] = counts.get(key, 0) + 1
        return counts

    def first_identifier(self, name: str) -> Token | None:
        """The first IDENTIFIER token whose lower-cased text is ``name``
        (lower-case), for locating declarations."""
        word = name[:-1] if name and name[-1] in _TYPE_SUFFIXES else name
        significant = self.significant
        for position in self.index.get(word, ()):
            token = significant[position]
            if token.kind is TokenKind.IDENTIFIER and token.text.lower() == name:
                return token
        return None

    def _statement_head(self, position: int, prefixes: tuple[str, ...]) -> int:
        """The number of the statement that the word at ``position`` opens,
        optionally after one word of ``prefixes``; ``-1`` if it opens none."""
        number = self.statement_of[position]
        start = self.statement_bounds[number][0]
        if position == start or (
            position == start + 1 and self.words[start] in prefixes
        ):
            return number
        return -1

    @cached_property
    def const_declarations(self) -> list[tuple[int, int]]:
        """``(name, value)`` positions of single-literal ``Const`` items.

        Handles ``[Public|Private|Global] Const name [As Type] = "literal"``
        with multiple comma-separated items per statement.
        """
        words = self.words
        significant = self.significant
        identifier = TokenKind.IDENTIFIER
        string = TokenKind.STRING
        found: list[tuple[int, int]] = []
        for position in self.index.get("const", ()):
            number = self._statement_head(position, ("public", "private", "global"))
            if number < 0:
                continue
            end = self.statement_bounds[number][1]
            index = position + 1
            while index < end:
                if significant[index].kind is not identifier:
                    break
                name = index
                index += 1
                if index < end and words[index] == "as":
                    index += 2  # skip the type name
                if index >= end or words[index] != "=":
                    break
                index += 1
                value = -1
                if (
                    index < end
                    and significant[index].kind is string
                    and (index + 1 >= end or words[index + 1] == ",")
                ):
                    value = index
                # Skip the initializer expression up to the next item separator.
                while index < end and words[index] != ",":
                    index += 1
                index += 1
                if value >= 0:
                    found.append((name, value))
        return found

    @cached_property
    def procedure_headers(self) -> dict[int, tuple[str, int]]:
        """``[visibility] [Static] Sub|Function name`` statement heads.

        Maps a statement number to ``(visibility, name position)``.
        ``Property`` procedures are skipped: accessors are invoked
        implicitly by reads and writes, so a use count says nothing about
        their liveness.
        """
        words = self.words
        significant = self.significant
        bounds = self.statement_bounds
        owner = self.statement_of
        headers: dict[int, tuple[str, int]] = {}
        for position in self.positions("sub", "function"):
            number = owner[position]
            start, end = bounds[number]
            visibility = "public"
            head = start
            if words[head] in ("public", "private", "friend"):
                visibility = words[head]
                head += 1
            if words[head] == "static":
                head += 1
            if head != position or position + 1 >= end:
                continue
            if significant[position + 1].kind is TokenKind.IDENTIFIER:
                headers[number] = (visibility, position + 1)
        return headers

    @cached_property
    def dim_names(self) -> list[int]:
        """Positions of the names a ``Dim``/``Static`` statement declares."""
        words = self.words
        significant = self.significant
        identifier = TokenKind.IDENTIFIER
        names: list[int] = []
        for position in self.positions("dim", "static"):
            number = self._statement_head(position, ("public", "private", "global"))
            if number < 0:
                continue
            depth = 0
            expecting_name = True
            for index in range(position + 1, self.statement_bounds[number][1]):
                word = words[index]
                if word == "(":
                    depth += 1
                elif word == ")":
                    depth = max(0, depth - 1)
                elif word == ",":
                    if depth == 0:
                        expecting_name = True
                elif word == "as":
                    expecting_name = False
                elif (
                    significant[index].kind is identifier
                    and expecting_name
                    and depth == 0
                ):
                    names.append(index)
                    expecting_name = False
        return names

    def line_text(self, line: int) -> str:
        """The trimmed source text of a 1-based physical line.

        Capped to :data:`MAX_LINE_SCAN_CHARS` *before* any other string
        work, so one multi-megabyte line cannot turn a rule sweep
        quadratic (the slice keeps every later scan O(cap))."""
        lines = self.analysis.lines
        if 1 <= line <= len(lines):
            return lines[line - 1][:MAX_LINE_SCAN_CHARS].strip()
        return ""

    def evidence(self, token: Token, limit: int = 120) -> str:
        """Trimmed source line of ``token``, capped to ``limit`` characters."""
        text = self.line_text(token.line)
        if len(text) > limit:
            text = text[: limit - 1] + "…"
        return text
