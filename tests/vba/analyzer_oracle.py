"""The token-object analyzer walks, kept as the reference analyzer.

These are :func:`repro.vba.analyzer.summarize`, ``_collect`` and
``_argument_lengths`` as they were before the analyzer read the lexer's
columns: each walks a list of :class:`~repro.vba.tokens.Token` objects
and copies the tokens it keeps.  The tests compare the column walks
against them field for field: every ``MacroAnalysis`` list and every
``AnalysisSummary`` field, arrays byte-equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.vba.analyzer import (
    _FUNCTION_BODY_PATTERN,
    _WORD_PATTERN,
    CATALOG_ORDER,
    LONG_LINE_THRESHOLD,
    AnalysisSummary,
    CallSite,
    _char_stats,
    _is_human_readable,
)
from repro.vba.functions import ALL_CATEGORIZED_FUNCTIONS
from repro.vba.lexer import tokenize
from repro.vba.tokens import STRING_CONCAT_OPERATORS, Token, TokenKind

_PROCEDURE_KEYWORDS = frozenset({"sub", "function", "property"})
_DECLARATION_KEYWORDS = frozenset({"dim", "const", "redim", "static"})


@dataclass(slots=True)
class ReferenceAnalysis:
    """What ``MacroAnalysis`` held before: the source and its tokens."""

    source: str
    tokens: list[Token] = field(default_factory=list)
    declared_identifiers: list[str] = field(default_factory=list)
    identifier_uses: list[str] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    string_literals: list[str] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    procedure_names: list[str] = field(default_factory=list)


def reference_analyze(source: str) -> ReferenceAnalysis:
    analysis = ReferenceAnalysis(source=source)
    analysis.tokens = tokenize(source)
    _collect(analysis)
    return analysis


def summarize(analysis: ReferenceAnalysis) -> AnalysisSummary:
    """Build the array-backed summary from one finished analysis.

    One walk over the token list, one vectorized pass over the characters,
    one regex pass for words and one for procedure bodies — after this the
    feature extractors never look at the analysis again.
    """
    source = analysis.source
    char_histogram, entropy = _char_stats(source)
    whitespace_chars = int(
        char_histogram[32] + char_histogram[9]
        + char_histogram[13] + char_histogram[10]
    )
    backslash_chars = int(char_histogram[92])

    tokens = analysis.tokens
    kinds = [token.kind for token in tokens]
    token_kind_counts = np.array(
        [kinds.count(kind) for kind in TokenKind], dtype=np.int64
    )
    comment_parts: list[str] = []
    string_token_chars = 0
    string_op_count = 0
    for token in tokens:
        kind = token.kind
        if kind is TokenKind.COMMENT:
            comment_parts.append(token.text)
        elif kind is TokenKind.STRING:
            string_token_chars += len(token.text)
        elif kind is TokenKind.OPERATOR and token.text in STRING_CONCAT_OPERATORS:
            string_op_count += 1
    comment_text = "".join(comment_parts)
    comment_chars = len(comment_text)

    lines = source.splitlines()
    line_lengths = np.fromiter(
        (len(line) for line in lines), dtype=np.int64, count=len(lines)
    )
    long_line_count = (
        int((line_lengths > LONG_LINE_THRESHOLD).sum()) if len(lines) else 0
    )

    words = _WORD_PATTERN.findall(source)
    word_lengths = np.fromiter(
        (len(word) for word in words), dtype=np.int64, count=len(words)
    )
    # Both word tests are pure functions of the word, so each distinct
    # word is tested once and weighted by its count.
    word_counts = Counter(words)
    readable_word_count = sum(
        count for word, count in word_counts.items() if _is_human_readable(word)
    )
    words_in_comment_count = (
        sum(count for word, count in word_counts.items() if word in comment_text)
        if comment_text
        else 0
    )

    string_lengths = np.fromiter(
        (len(value) for value in analysis.string_literals),
        dtype=np.int64,
        count=len(analysis.string_literals),
    )
    identifier_lengths = np.fromiter(
        (len(name) for name in analysis.declared_identifiers),
        dtype=np.int64,
        count=len(analysis.declared_identifiers),
    )

    catalog_hits = np.zeros(len(CATALOG_ORDER), dtype=np.int64)
    member_call_count = 0
    for call in analysis.call_sites:
        lowered = call.name.lower()
        if call.is_member:
            member_call_count += 1
        for column, catalog in enumerate(CATALOG_ORDER):
            if lowered in catalog:
                catalog_hits[column] += 1

    argument_lengths = _argument_lengths(tokens)

    body_count = 0
    body_total_chars = 0
    for match in _FUNCTION_BODY_PATTERN.finditer(source):
        body_count += 1
        body_total_chars += match.end(1) - match.start(1)

    return AnalysisSummary(
        source_chars=len(source),
        code_chars=len(source) - comment_chars,
        comment_chars=comment_chars,
        whitespace_chars=whitespace_chars,
        backslash_chars=backslash_chars,
        entropy=entropy,
        char_histogram=char_histogram,
        line_count=len(lines),
        long_line_count=long_line_count,
        line_lengths=line_lengths,
        token_kind_counts=token_kind_counts,
        comment_count=len(comment_parts),
        word_count=len(words),
        word_len_sum=int(word_lengths.sum()),
        word_len_sqsum=int((word_lengths * word_lengths).sum()),
        readable_word_count=readable_word_count,
        words_in_comment_count=words_in_comment_count,
        word_lengths=word_lengths,
        string_count=len(analysis.string_literals),
        string_len_sum=int(string_lengths.sum()),
        string_token_chars=string_token_chars,
        string_op_count=string_op_count,
        string_lengths=string_lengths,
        identifier_count=len(analysis.declared_identifiers),
        identifier_len_sum=int(identifier_lengths.sum()),
        identifier_len_sqsum=int((identifier_lengths * identifier_lengths).sum()),
        identifier_lengths=identifier_lengths,
        call_count=len(analysis.call_sites),
        member_call_count=member_call_count,
        catalog_hits=catalog_hits,
        argument_count=len(argument_lengths),
        argument_len_sum=int(sum(argument_lengths)),
        body_count=body_count,
        body_total_chars=body_total_chars,
    )



def _argument_lengths(all_tokens: list[Token]) -> list[int]:
    """Character lengths of parenthesized call arguments (J9).

    An argument list is everything between a ``(`` that follows an
    identifier and its matching ``)`` — or the end of the module when the
    parenthesis is never closed.  One pass matches parentheses with a
    stack and builds prefix sums of token-text lengths, so each call site
    costs one subtraction however long or unbalanced the module is.
    """
    tokens = [
        t
        for t in all_tokens
        if t.kind
        not in (TokenKind.WHITESPACE, TokenKind.NEWLINE, TokenKind.EOF)
    ]
    offsets = [0, *accumulate(len(token.text) for token in tokens)]
    closing: dict[int, int] = {}
    unclosed: list[int] = []
    call_opens: list[int] = []
    for index, token in enumerate(tokens):
        if token.kind is not TokenKind.PUNCT:
            continue
        if token.text == "(":
            unclosed.append(index)
            if index and tokens[index - 1].kind is TokenKind.IDENTIFIER:
                call_opens.append(index)
        elif token.text == ")" and unclosed:
            closing[unclosed.pop()] = index
    end = len(tokens)
    return [offsets[closing.get(open_, end)] - offsets[open_ + 1] for open_ in call_opens]



def _collect(analysis: ReferenceAnalysis) -> None:
    tokens = [
        token
        for token in analysis.tokens
        if token.kind
        not in (
            TokenKind.WHITESPACE,
            TokenKind.LINE_CONTINUATION,
            TokenKind.EOF,
        )
    ]
    declared: list[str] = []
    declared_seen: set[str] = set()
    uses: list[str] = []
    calls: list[CallSite] = []
    strings: list[str] = []
    comments: list[str] = []
    procedures: list[str] = []

    def declare(name: str) -> None:
        lowered = name.lower()
        if lowered not in declared_seen:
            declared_seen.add(lowered)
            declared.append(name)

    index = 0
    at_statement_start = True
    while index < len(tokens):
        token = tokens[index]

        if token.kind is TokenKind.NEWLINE or (
            token.kind is TokenKind.PUNCT and token.text == ":"
        ):
            at_statement_start = True
            index += 1
            continue

        if token.kind is TokenKind.COMMENT:
            comments.append(token.text)
            index += 1
            continue

        if token.kind is TokenKind.STRING:
            strings.append(token.string_value)
            at_statement_start = False
            index += 1
            continue

        if token.kind is TokenKind.KEYWORD:
            keyword = token.text.lower()
            if keyword in _PROCEDURE_KEYWORDS:
                index = _scan_procedure(
                    tokens, index, keyword, declare, procedures, strings
                )
                at_statement_start = False
                continue
            if keyword in _DECLARATION_KEYWORDS:
                index = _scan_declaration(tokens, index, declare, strings)
                at_statement_start = False
                continue
            if keyword == "for":
                index = _scan_for(tokens, index, declare)
                at_statement_start = False
                continue
            if keyword == "call" and _kind_at(tokens, index + 1) is TokenKind.IDENTIFIER:
                callee = tokens[index + 1]
                calls.append(CallSite(callee.text, callee.line, is_member=False))
                uses.append(callee.text)
                index += 2
                at_statement_start = False
                continue
            if (
                keyword in ALL_CATEGORIZED_FUNCTIONS
                and _kind_at(tokens, index + 1) is TokenKind.PUNCT
                and tokens[index + 1].text == "("
            ):
                # Callable builtins that lex as keywords: CStr(), CLng(), …
                calls.append(
                    CallSite(
                        token.text, token.line, _is_member_access(tokens, index)
                    )
                )
            at_statement_start = False
            index += 1
            continue

        if token.kind is TokenKind.IDENTIFIER:
            uses.append(token.text)
            is_member = _is_member_access(tokens, index)
            next_kind = _kind_at(tokens, index + 1)
            next_text = tokens[index + 1].text if index + 1 < len(tokens) else ""
            lowered = token.text.lower()
            if next_kind is TokenKind.PUNCT and next_text == "(":
                calls.append(CallSite(token.text, token.line, is_member))
            elif (
                at_statement_start
                and not is_member
                and lowered in ALL_CATEGORIZED_FUNCTIONS
            ):
                # Statement-style invocation: ``Shell program, 1``.
                calls.append(CallSite(token.text, token.line, is_member=False))
            at_statement_start = False
            index += 1
            continue

        at_statement_start = False
        index += 1

    analysis.declared_identifiers = declared
    analysis.identifier_uses = uses
    analysis.call_sites = calls
    analysis.string_literals = strings
    analysis.comments = comments
    analysis.procedure_names = procedures


def _kind_at(tokens: list[Token], index: int) -> TokenKind | None:
    if 0 <= index < len(tokens):
        return tokens[index].kind
    return None


def _is_member_access(tokens: list[Token], index: int) -> bool:
    if index == 0:
        return False
    prev = tokens[index - 1]
    return prev.kind is TokenKind.PUNCT and prev.text == "."


def _scan_procedure(
    tokens: list[Token],
    index: int,
    keyword: str,
    declare,
    procedures: list[str],
    strings: list[str],
) -> int:
    """Handle ``Sub name(params)`` / ``Function name(...)`` / ``Property Get name``.

    Returns the index to resume scanning from.
    """
    cursor = index + 1
    if keyword == "property" and _kind_at(tokens, cursor) in (
        TokenKind.KEYWORD,
        TokenKind.IDENTIFIER,
    ):
        accessor = tokens[cursor].text.lower()
        if accessor in ("get", "let", "set"):
            cursor += 1
    if _kind_at(tokens, cursor) is not TokenKind.IDENTIFIER:
        # ``End Sub`` / ``Exit Function`` — nothing declared here.
        return index + 1
    name_token = tokens[cursor]
    declare(name_token.text)
    procedures.append(name_token.text)
    cursor += 1
    # Parameters: ``(ByVal a As String, Optional b)``.
    if (
        _kind_at(tokens, cursor) is TokenKind.PUNCT
        and tokens[cursor].text == "("
    ):
        depth = 0
        expecting_name = True
        while cursor < len(tokens):
            token = tokens[cursor]
            if token.kind is TokenKind.PUNCT and token.text == "(":
                depth += 1
            elif token.kind is TokenKind.PUNCT and token.text == ")":
                depth -= 1
                if depth == 0:
                    cursor += 1
                    break
            elif token.kind is TokenKind.PUNCT and token.text == "," and depth == 1:
                expecting_name = True
            elif token.kind is TokenKind.KEYWORD:
                lowered = token.text.lower()
                if lowered == "as":
                    expecting_name = False
                # byval/byref/optional/paramarray keep us expecting a name.
            elif token.kind is TokenKind.IDENTIFIER and expecting_name and depth == 1:
                declare(token.text)
                expecting_name = False
            elif token.kind is TokenKind.STRING:
                strings.append(token.string_value)
            cursor += 1
    return cursor


def _scan_declaration(
    tokens: list[Token], index: int, declare, strings: list[str]
) -> int:
    """Handle ``Dim a As X, b(10) As Y`` and friends on one logical line."""
    cursor = index + 1
    expecting_name = True
    depth = 0
    while cursor < len(tokens):
        token = tokens[cursor]
        if token.kind is TokenKind.NEWLINE:
            break
        if token.kind is TokenKind.PUNCT:
            if token.text == "(":
                depth += 1
            elif token.text == ")":
                depth = max(0, depth - 1)
            elif token.text == "," and depth == 0:
                expecting_name = True
            elif token.text == ":":
                break
        elif token.kind is TokenKind.OPERATOR and token.text == "=" and depth == 0:
            # ``Const x = 5``: the initializer is an expression, stop naming.
            expecting_name = False
        elif token.kind is TokenKind.KEYWORD:
            if token.text.lower() == "as":
                expecting_name = False
        elif token.kind is TokenKind.IDENTIFIER and expecting_name and depth == 0:
            declare(token.text)
            expecting_name = False
        elif token.kind is TokenKind.STRING:
            strings.append(token.string_value)
        cursor += 1
    return cursor


def _scan_for(tokens: list[Token], index: int, declare) -> int:
    """Handle ``For i = ...`` and ``For Each cell In ...`` loop variables."""
    cursor = index + 1
    if (
        _kind_at(tokens, cursor) is TokenKind.KEYWORD
        and tokens[cursor].text.lower() == "each"
    ):
        cursor += 1
    if _kind_at(tokens, cursor) is TokenKind.IDENTIFIER:
        declare(tokens[cursor].text)
        cursor += 1
    return cursor
