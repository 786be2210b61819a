"""Structural analysis of VBA macro source code.

:class:`MacroAnalysis` is the single shared substrate for feature extraction
(:mod:`repro.features`) and for the obfuscation engine
(:mod:`repro.obfuscation`).  From one lexer pass it derives:

* declared identifiers — procedure names, parameters, ``Dim``/``Const``/
  ``ReDim``/``For Each`` variables — which is exactly the set O1 random
  obfuscation renames;
* call sites — names invoked with ``(...)``, via ``Call``, or in statement
  position — categorized against the built-in catalogs for V8–V12;
* string literals, comments, and the paper's notion of "words" (units
  delimited by whitespace and VBA symbols, following Likarish et al.).

The analysis walks the lexer's :class:`~repro.vba.lexer.TokenTable`
columns and builds no :class:`~repro.vba.tokens.Token` objects;
``MacroAnalysis.tokens`` makes them on first access.

On top of the structural analysis sits :class:`AnalysisSummary` — a small,
picklable, array-backed digest of everything the feature extractors need
(token-kind counts, word/string/identifier length arrays with exact integer
sums, a char-class histogram, Shannon entropy computed once).  It is built
in a single column walk plus one vectorized character pass, so feature
kernels never re-walk tokens or re-scan the source.  All of its reductions
are segment-local (per macro), which is what makes the batch feature
kernels row-deterministic: a macro's feature row is bit-identical whether
it is extracted alone or in a batch of thousands.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress
from string import ascii_letters

import numpy as np

from repro.vba.functions import (
    ALL_CATEGORIZED_FUNCTIONS,
    ARITHMETIC_FUNCTIONS,
    FINANCIAL_FUNCTIONS,
    RICH_FUNCTIONS,
    TEXT_FUNCTIONS,
    TYPE_CONVERSION_FUNCTIONS,
)
from repro.vba.lexer import TokenTable, lex
from repro.vba.parser import ModuleParse, parse_tolerant
from repro.vba.tokens import STRING_CONCAT_OPERATORS, Token, TokenKind, string_value

# Keywords that introduce a procedure whose following identifier is the
# procedure name.
_PROCEDURE_KEYWORDS = frozenset({"sub", "function", "property"})

# Keywords that introduce variable declarations whose following identifiers
# (comma-separated, possibly with ``As Type`` clauses) are declared names.
_DECLARATION_KEYWORDS = frozenset({"dim", "const", "redim", "static"})

_WORD_PATTERN = re.compile(r"[A-Za-z0-9_$#@%!&]+")

#: J14's VBA adaptation (Section V.B of the paper): a line is "long" past
#: 150 characters instead of the JavaScript studies' 1000.
LONG_LINE_THRESHOLD = 150

#: Procedure bodies, split on Sub/Function boundaries (J18–J20).
_FUNCTION_BODY_PATTERN = re.compile(
    r"(?:^|\n)[ \t]*(?:Public\s+|Private\s+)?(?:Sub|Function)\s+\w+"
    r".*?\n(.*?)(?:^|\n)[ \t]*End (?:Sub|Function)",
    re.DOTALL | re.IGNORECASE,
)

#: The built-in call catalogs, in the fixed column order used by
#: :attr:`AnalysisSummary.catalog_hits` (and features V8–V12).
CATALOG_ORDER: tuple[frozenset[str], ...] = (
    TEXT_FUNCTIONS,
    ARITHMETIC_FUNCTIONS,
    TYPE_CONVERSION_FUNCTIONS,
    FINANCIAL_FUNCTIONS,
    RICH_FUNCTIONS,
)

#: char-class histogram shape: one bin per ASCII codepoint plus a single
#: overflow bin for everything non-ASCII.
_HIST_BINS = 129
_HIST_OVERFLOW = 128

#: ``_is_human_readable``'s tests, over ASCII words.
_DROP_LETTERS = str.maketrans("", "", ascii_letters)
_VOWEL = re.compile("[aeiouAEIOU]")
_CONSONANT_RUN = re.compile("[b-df-hj-np-tv-zB-DF-HJ-NP-TV-Z]{4}")


@dataclass(slots=True)
class CallSite:
    """A function / procedure invocation found in the source."""

    name: str
    line: int
    is_member: bool  # invoked as ``object.Name(...)``


@dataclass(slots=True)
class MacroAnalysis:
    """The result of analyzing one VBA module's source code."""

    source: str
    table: TokenTable = field(
        default_factory=lambda: TokenTable([], [], [], [], [])
    )
    declared_identifiers: list[str] = field(default_factory=list)
    identifier_uses: list[str] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    string_literals: list[str] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    procedure_names: list[str] = field(default_factory=list)
    #: lazily-built array-backed digest for the batch feature kernels
    summary: "AnalysisSummary | None" = field(default=None, compare=False)
    #: lazily-built tolerant parse, shared by the SA and the lint rules;
    #: process-local: a pickled analysis travels without it (a kept
    #: ``VBAParseError`` cannot be unpickled, and the AST is rebuilt cheaply)
    module_parse: ModuleParse | None = field(default=None, compare=False)

    def __getstate__(self):
        state = {name: getattr(self, name) for name in self.__slots__}
        state["module_parse"] = None
        return None, state

    @property
    def tokens(self) -> list[Token]:
        """Every token as a :class:`Token` view, built on first access."""
        return self.table.tokens()

    # ------------------------------------------------------------------
    # Derived text measures used by the feature extractors.

    @property
    def code_without_comments(self) -> str:
        """The source with comment token text removed (other text intact)."""
        comment = TokenKind.COMMENT
        table = self.table
        return "".join(
            text for kind, text in zip(table.kinds, table.texts) if kind is not comment
        )

    @property
    def comment_text(self) -> str:
        """All comment text concatenated (markers included)."""
        comment = TokenKind.COMMENT
        table = self.table
        return "".join(
            text for kind, text in zip(table.kinds, table.texts) if kind is comment
        )

    @property
    def words(self) -> list[str]:
        """The paper's 'words': maximal runs delimited by whitespace/symbols."""
        return _WORD_PATTERN.findall(self.source)

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    def operator_count(self, operators: frozenset[str]) -> int:
        """Count OPERATOR tokens whose text is in ``operators``."""
        operator = TokenKind.OPERATOR
        table = self.table
        return sum(
            1
            for kind, text in zip(table.kinds, table.texts)
            if kind is operator and text in operators
        )

    def called_builtin_fraction(self, catalog: frozenset[str]) -> float:
        """Fraction of call sites whose name is in ``catalog`` (lower-case)."""
        if not self.call_sites:
            return 0.0
        hits = sum(1 for call in self.call_sites if call.name.lower() in catalog)
        return hits / len(self.call_sites)

    def ensure_summary(self) -> "AnalysisSummary":
        """The cached :class:`AnalysisSummary`, built on first access."""
        if self.summary is None:
            self.summary = summarize(self)
        return self.summary

    def ensure_parse(self) -> ModuleParse:
        """The cached tolerant parse of :attr:`source` and the first parse
        error it got past (:func:`~repro.vba.parser.parse_tolerant`), built
        on first access from :attr:`table`."""
        if self.module_parse is None:
            self.module_parse = parse_tolerant(self.source, self.table)
        return self.module_parse


@dataclass(slots=True)
class AnalysisSummary:
    """Array-backed digest of one macro for the batch feature kernels.

    Everything here is plain numbers and small numpy arrays: the summary
    pickles cheaply, travels through process pools, and lets the V/J
    extractors compute whole feature columns in single vectorized passes
    without touching tokens again.  Integer sums (``*_sum``/``*_sqsum``)
    are exact in float64, so means and variances derived from them do not
    depend on batch composition.
    """

    # -- characters ----------------------------------------------------
    source_chars: int
    code_chars: int  # source minus comment-token text (the lexer is lossless)
    comment_chars: int
    whitespace_chars: int  # " \t\r\n"
    backslash_chars: int
    entropy: float  # Shannon entropy of the source, computed exactly once
    char_histogram: np.ndarray  # (129,) int64: ASCII bins + one overflow bin
    # -- line structure ------------------------------------------------
    line_count: int
    long_line_count: int  # lines beyond LONG_LINE_THRESHOLD chars
    line_lengths: np.ndarray
    # -- tokens ----------------------------------------------------------
    token_kind_counts: np.ndarray  # (len(TokenKind),) int64, TokenKind order
    comment_count: int
    # -- the paper's "words" -------------------------------------------
    word_count: int
    word_len_sum: int
    word_len_sqsum: int
    readable_word_count: int
    words_in_comment_count: int
    word_lengths: np.ndarray
    # -- string literals -----------------------------------------------
    string_count: int
    string_len_sum: int  # decoded literal lengths
    string_token_chars: int  # raw token text incl. quotes (V6/J16)
    string_op_count: int  # OPERATOR tokens in STRING_CONCAT_OPERATORS
    string_lengths: np.ndarray
    # -- declared identifiers ------------------------------------------
    identifier_count: int
    identifier_len_sum: int
    identifier_len_sqsum: int
    identifier_lengths: np.ndarray
    # -- call sites ----------------------------------------------------
    call_count: int
    member_call_count: int
    catalog_hits: np.ndarray  # (5,) int64 in CATALOG_ORDER
    argument_count: int
    argument_len_sum: int
    # -- procedure bodies ----------------------------------------------
    body_count: int
    body_total_chars: int


def analyze(source: str) -> MacroAnalysis:
    """Run the full structural analysis over one module's source code."""
    analysis = MacroAnalysis(source=source, table=lex(source))
    _collect(analysis)
    return analysis


def summarize(analysis: MacroAnalysis) -> AnalysisSummary:
    """Build the array-backed summary from one finished analysis.

    One walk over the token columns, one vectorized pass over the characters,
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

    table = analysis.table
    kinds = table.kinds
    texts = table.texts
    token_kind_counts = np.array(
        [kinds.count(kind) for kind in TokenKind], dtype=np.int64
    )
    comment = TokenKind.COMMENT
    string = TokenKind.STRING
    comment_parts: list[str] = []
    string_token_chars = 0
    for kind, text in zip(kinds, texts):
        if kind is comment:
            comment_parts.append(text)
        elif kind is string:
            string_token_chars += len(text)
    # ``&``, ``+`` and ``=`` lex only as OPERATOR tokens.
    string_op_count = sum(map(texts.count, STRING_CONCAT_OPERATORS))
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

    argument_lengths = _argument_lengths(table)

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


def _char_stats(source: str) -> tuple[np.ndarray, float]:
    """Char-class histogram + Shannon entropy from one vectorized pass."""
    if not source:
        return np.zeros(_HIST_BINS, dtype=np.int64), 0.0
    codes = np.frombuffer(source.encode("utf-32-le"), dtype=np.uint32)
    histogram = np.bincount(
        np.minimum(codes, _HIST_OVERFLOW), minlength=_HIST_BINS
    ).astype(np.int64)
    _, counts = np.unique(codes, return_counts=True)
    probabilities = counts / len(codes)
    entropy = float(-(probabilities * np.log2(probabilities)).sum())
    return histogram, entropy


def _is_human_readable(word: str) -> bool:
    """Likarish-style readability: a word looks pronounceable.

    Heuristic: mostly letters, contains a vowel, not absurdly long, and no
    long consonant run (pronounceable English never stacks 4+ consonants the
    way ``rjzybhqrliy``-style random identifiers do).  ``word`` is one of
    :data:`_WORD_PATTERN`'s ASCII words, so a letter is ``[A-Za-z]``.
    """
    if not word or len(word) > 15:
        return False
    letters = len(word) - len(word.translate(_DROP_LETTERS))
    if letters < len(word) * 0.5:
        return False
    return _VOWEL.search(word) is not None and _CONSONANT_RUN.search(word) is None


def _argument_lengths(table: TokenTable) -> list[int]:
    """Character lengths of parenthesized call arguments (J9).

    An argument list is everything between a ``(`` that follows an
    identifier and its matching ``)`` — or the end of the module when the
    parenthesis is never closed — with whitespace and newlines not
    counted.  One pass matches parentheses with a stack and builds prefix
    sums of token-text lengths, so each call site costs one subtraction
    however long or unbalanced the module is.
    """
    skip = (TokenKind.WHITESPACE, TokenKind.NEWLINE, TokenKind.EOF)
    kept = [kind not in skip for kind in table.kinds]
    kinds = list(compress(table.kinds, kept))
    texts = list(compress(table.texts, kept))
    offsets = [0, *accumulate(map(len, texts))]
    identifier = TokenKind.IDENTIFIER
    closing: dict[int, int] = {}
    unclosed: list[int] = []
    call_opens: list[int] = []
    # ``(`` and ``)`` lex only as PUNCT tokens.
    for index, text in enumerate(texts):
        if text == "(":
            unclosed.append(index)
            if index and kinds[index - 1] is identifier:
                call_opens.append(index)
        elif text == ")" and unclosed:
            closing[unclosed.pop()] = index
    end = len(texts)
    return [offsets[closing.get(open_, end)] - offsets[open_ + 1] for open_ in call_opens]


# ----------------------------------------------------------------------
# The structural walk.  It reads the table's columns with whitespace,
# continuations and EOF dropped; a punctuation text (``(``, ``.``, ``:``)
# is only ever a PUNCT token, so those tests compare texts alone.


def _collect(analysis: MacroAnalysis) -> None:
    table = analysis.table
    skip = (TokenKind.WHITESPACE, TokenKind.LINE_CONTINUATION, TokenKind.EOF)
    kept = [kind not in skip for kind in table.kinds]
    kinds = list(compress(table.kinds, kept))
    texts = list(compress(table.texts, kept))
    words = list(compress(table.words, kept))
    lines = list(compress(table.lines, kept))
    count = len(kinds)
    newline = TokenKind.NEWLINE
    punct = TokenKind.PUNCT
    comment = TokenKind.COMMENT
    string = TokenKind.STRING
    keyword_kind = TokenKind.KEYWORD
    identifier = TokenKind.IDENTIFIER
    builtins = ALL_CATEGORIZED_FUNCTIONS
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
    while index < count:
        kind = kinds[index]

        if kind is newline:
            at_statement_start = True
            index += 1
            continue

        if kind is punct:
            at_statement_start = texts[index] == ":"
            index += 1
            continue

        if kind is comment:
            comments.append(texts[index])
            index += 1
            continue

        if kind is string:
            strings.append(string_value(texts[index]))
            at_statement_start = False
            index += 1
            continue

        if kind is keyword_kind:
            keyword = words[index]
            if keyword in _PROCEDURE_KEYWORDS:
                index = _scan_procedure(
                    kinds, texts, words, index, keyword, declare, procedures, strings
                )
                at_statement_start = False
                continue
            if keyword in _DECLARATION_KEYWORDS:
                index = _scan_declaration(kinds, texts, words, index, declare, strings)
                at_statement_start = False
                continue
            if keyword == "for":
                index = _scan_for(kinds, texts, words, index, declare)
                at_statement_start = False
                continue
            if keyword == "call" and index + 1 < count and kinds[index + 1] is identifier:
                callee = texts[index + 1]
                calls.append(CallSite(callee, lines[index + 1], is_member=False))
                uses.append(callee)
                index += 2
                at_statement_start = False
                continue
            if keyword in builtins and index + 1 < count and texts[index + 1] == "(":
                # Callable builtins that lex as keywords: CStr(), CLng(), …
                calls.append(
                    CallSite(
                        texts[index],
                        lines[index],
                        index > 0 and texts[index - 1] == ".",
                    )
                )
            at_statement_start = False
            index += 1
            continue

        if kind is identifier:
            text = texts[index]
            uses.append(text)
            is_member = index > 0 and texts[index - 1] == "."
            if index + 1 < count and texts[index + 1] == "(":
                calls.append(CallSite(text, lines[index], is_member))
            elif at_statement_start and not is_member and text.lower() in builtins:
                # Statement-style invocation: ``Shell program, 1``.
                calls.append(CallSite(text, lines[index], is_member=False))
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


def _scan_procedure(
    kinds: list[TokenKind],
    texts: list[str],
    words: list[str | None],
    index: int,
    keyword: str,
    declare,
    procedures: list[str],
    strings: list[str],
) -> int:
    """Handle ``Sub name(params)`` / ``Function name(...)`` / ``Property Get name``.

    Returns the index to resume scanning from.
    """
    count = len(kinds)
    identifier = TokenKind.IDENTIFIER
    cursor = index + 1
    if (
        keyword == "property"
        and cursor < count
        and kinds[cursor] in (TokenKind.KEYWORD, identifier)
        and texts[cursor].lower() in ("get", "let", "set")
    ):
        cursor += 1
    if cursor >= count or kinds[cursor] is not identifier:
        # ``End Sub`` / ``Exit Function`` — nothing declared here.
        return index + 1
    name = texts[cursor]
    declare(name)
    procedures.append(name)
    cursor += 1
    # Parameters: ``(ByVal a As String, Optional b)``.
    if cursor < count and texts[cursor] == "(":
        depth = 0
        expecting_name = True
        while cursor < count:
            kind = kinds[cursor]
            if kind is TokenKind.PUNCT:
                text = texts[cursor]
                if text == "(":
                    depth += 1
                elif text == ")":
                    depth -= 1
                    if depth == 0:
                        cursor += 1
                        break
                elif text == "," and depth == 1:
                    expecting_name = True
            elif kind is TokenKind.KEYWORD:
                if words[cursor] == "as":
                    expecting_name = False
                # byval/byref/optional/paramarray keep us expecting a name.
            elif kind is identifier and expecting_name and depth == 1:
                declare(texts[cursor])
                expecting_name = False
            elif kind is TokenKind.STRING:
                strings.append(string_value(texts[cursor]))
            cursor += 1
    return cursor


def _scan_declaration(
    kinds: list[TokenKind],
    texts: list[str],
    words: list[str | None],
    index: int,
    declare,
    strings: list[str],
) -> int:
    """Handle ``Dim a As X, b(10) As Y`` and friends on one logical line."""
    count = len(kinds)
    cursor = index + 1
    expecting_name = True
    depth = 0
    while cursor < count:
        kind = kinds[cursor]
        if kind is TokenKind.NEWLINE:
            break
        if kind is TokenKind.PUNCT:
            text = texts[cursor]
            if text == "(":
                depth += 1
            elif text == ")":
                depth = max(0, depth - 1)
            elif text == "," and depth == 0:
                expecting_name = True
            elif text == ":":
                break
        elif kind is TokenKind.OPERATOR and texts[cursor] == "=" and depth == 0:
            # ``Const x = 5``: the initializer is an expression, stop naming.
            expecting_name = False
        elif kind is TokenKind.KEYWORD:
            if words[cursor] == "as":
                expecting_name = False
        elif kind is TokenKind.IDENTIFIER and expecting_name and depth == 0:
            declare(texts[cursor])
            expecting_name = False
        elif kind is TokenKind.STRING:
            strings.append(string_value(texts[cursor]))
        cursor += 1
    return cursor


def _scan_for(
    kinds: list[TokenKind],
    texts: list[str],
    words: list[str | None],
    index: int,
    declare,
) -> int:
    """Handle ``For i = ...`` and ``For Each cell In ...`` loop variables."""
    count = len(kinds)
    cursor = index + 1
    if cursor < count and words[cursor] == "each":
        cursor += 1
    if cursor < count and kinds[cursor] is TokenKind.IDENTIFIER:
        declare(texts[cursor])
        cursor += 1
    return cursor
