"""Shared per-module scan state handed to every lint rule.

Rules all walk the same :class:`~repro.vba.analyzer.MacroAnalysis`
substrate.  The :class:`LintContext` builds, once per macro and in one
pass over the lexer's token columns, the columns they jump through instead
of re-walking the stream.  A *position* indexes the significant tokens
(layout, comments, newlines and EOF dropped), and every column is
parallel to them:

* ``kinds``, ``texts``, ``lines`` and ``columns`` — what the lexer's
  table holds for the position;
* ``words`` — the lower-cased, suffix-stripped text of a name, the text of
  punctuation or an operator, ``None`` for literals;
* ``values`` — the decoded value of a string literal, ``None`` elsewhere;
* ``index`` — each word's ascending positions, so a rule starts at its
  anchor tokens (``Mid``, ``.``, ``Exit``) and tests their neighbours
  through ``words``;
* ``statement_bounds`` — the ``[start, end)`` positions of each logical
  statement, with ``statement_of`` mapping a position back to its
  statement.

Derivations that several rules share (``Const`` declarations, procedure
headers, ``Dim`` names) are memoized here too, so a full rule sweep is one
lex pass, one column pass, and anchor lookups.  Nothing here builds a
token object.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from heapq import merge
from typing import TYPE_CHECKING

from repro.vba.analyzer import MacroAnalysis
from repro.vba.tokens import TokenKind, string_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.sa.records import StringRecovery

_TYPE_SUFFIXES = "%&!#@$"

#: ReDoS / pathological-line guard: the longest physical-line prefix any
#: rule gets to scan.  Hostile macros pack megabytes onto one line (a
#: whole payload in one concatenation chain); rules that re-scan line text
#: must stay O(cap), not O(line).  4 KiB comfortably covers every line a
#: human or a legitimate generator writes.
MAX_LINE_SCAN_CHARS = 4096


class LintContext:
    """Cached columns over one macro's analysis, shared across all rules.

    Word equality stands in for kind-and-text tests: the lexer makes every
    reserved word a KEYWORD (never suffixed) and every other name an
    IDENTIFIER, and punctuation and operator texts are disjoint symbol
    sets, so ``words[i] == "exit"`` means the keyword ``Exit``,
    ``words[i] == "("`` the punctuation ``(`` and ``words[i] == "mid"`` a
    name ``Mid`` or ``Mid$``.
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
    ) -> tuple[list[int], list[str | None], list[tuple[int, int]], list[int]]:
        """One pass over the lexer's columns: the table index of each
        position, words, statement bounds, strings.

        Names take their word from the table's ``words`` column;
        punctuation and operators their text.

        Statements break on newlines and on ``:`` separators outside
        parentheses (``DoEvents: i = i + 1`` is two statements); the
        parenthesis depth carries across lines.  Line continuations were
        already spliced by the lexer, so a continued statement arrives as
        one group.
        """
        table = self.analysis.table
        keep: list[int] = []
        words: list[str | None] = []
        bounds: list[tuple[int, int]] = []
        strings: list[int] = []
        kept = keep.append
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
        start = depth = 0
        # Branches in order of token frequency in real macros.
        for index, (kind, text, word) in enumerate(
            zip(table.kinds, table.texts, table.words)
        ):
            if kind is whitespace:
                continue
            if kind is punct:
                word = text
                if word == "(":
                    depth += 1
                elif word == ")":
                    if depth:
                        depth -= 1
                elif word == ":" and not depth:
                    end = len(words)
                    if end > start:
                        bounds.append((start, end))
                    start = end + 1
            elif kind is identifier or kind is keyword:
                pass
            elif kind is newline:
                end = len(words)
                if end > start:
                    bounds.append((start, end))
                start = end
                continue
            elif kind is operator:
                word = text
            elif kind in layout:
                continue
            elif kind is eof:
                break
            elif kind is string:
                strings.append(len(words))
            kept(index)
            word_of(word)
        end = len(words)
        if end > start:
            bounds.append((start, end))
        return keep, words, bounds, strings

    def _column(self, column: list) -> list:
        """``column`` of the lexer's table at the positions."""
        return list(map(column.__getitem__, self._columns[0]))

    @cached_property
    def kinds(self) -> list[TokenKind]:
        """Per position, the token kind."""
        return self._column(self.analysis.table.kinds)

    @cached_property
    def texts(self) -> list[str]:
        """Per position, the exact source text."""
        return self._column(self.analysis.table.texts)

    @cached_property
    def lines(self) -> list[int]:
        """Per position, the 1-based line."""
        return self._column(self.analysis.table.lines)

    @cached_property
    def columns(self) -> list[int]:
        """Per position, the 1-based column."""
        return self._column(self.analysis.table.columns)

    @property
    def words(self) -> list[str | None]:
        """Per position: the name (lower-cased, type suffix dropped), the
        punctuation or operator text, or ``None``."""
        return self._columns[1]

    @property
    def statement_bounds(self) -> list[tuple[int, int]]:
        """``[start, end)`` positions of each logical statement, in order;
        separator ``:`` tokens fall between them."""
        return self._columns[2]

    @property
    def strings(self) -> list[int]:
        """Ascending positions of the string literals."""
        return self._columns[3]

    @cached_property
    def values(self) -> list[str | None]:
        """Per position, the decoded value of a string literal (each
        decoded once), ``None`` elsewhere."""
        values: list[str | None] = [None] * len(self.words)
        texts = self.texts
        for position in self.strings:
            values[position] = string_value(texts[position])
        return values

    @cached_property
    def statement_of(self) -> list[int]:
        """Per position, the number of its statement (``-1`` for a
        separating ``:``)."""
        owner = [-1] * len(self.words)
        for number, (start, end) in enumerate(self.statement_bounds):
            owner[start:end] = [number] * (end - start)
        return owner

    @cached_property
    def index(self) -> dict[str, list[int]]:
        """Each word's ascending positions."""
        positions: defaultdict[str | None, list[int]] = defaultdict(list)
        for position, word in enumerate(self.words):
            positions[word].append(position)
        positions.pop(None, None)
        return dict(positions)

    def positions(self, *words: str) -> list[int]:
        """Ascending positions of any of ``words``."""
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

    def first_identifier(self, name: str) -> int | None:
        """The position of the first IDENTIFIER whose lower-cased text is
        ``name`` (lower-case), for locating declarations."""
        word = name[:-1] if name and name[-1] in _TYPE_SUFFIXES else name
        kinds = self.kinds
        texts = self.texts
        for position in self.index.get(word, ()):
            if kinds[position] is TokenKind.IDENTIFIER and texts[position].lower() == name:
                return position
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
        kinds = self.kinds
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
                if kinds[index] is not identifier:
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
                    and kinds[index] is string
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
            if self.kinds[position + 1] is TokenKind.IDENTIFIER:
                headers[number] = (visibility, position + 1)
        return headers

    @cached_property
    def dim_names(self) -> list[int]:
        """Positions of the names a ``Dim``/``Static`` statement declares."""
        words = self.words
        kinds = self.kinds
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
                    kinds[index] is identifier
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

    def evidence(self, position: int, limit: int = 120) -> str:
        """Trimmed source line of ``position``, capped to ``limit`` characters."""
        text = self.line_text(self.lines[position])
        if len(text) > limit:
            text = text[: limit - 1] + "…"
        return text
