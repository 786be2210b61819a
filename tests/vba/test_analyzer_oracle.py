"""Differential tests: the column walks against the token-object analyzer.

:mod:`tests.vba.analyzer_oracle` keeps ``_collect``, ``summarize`` and
``_argument_lengths`` as they were when they walked ``Token`` objects.
The production analyzer reads the lexer's :class:`TokenTable` columns
instead; both must agree on every ``MacroAnalysis`` list (call-site lines
and member flags included) and every ``AnalysisSummary`` field, arrays
byte-equal, on the front-end golden corpus, the detector's training set
and fuzzed fragments.  The table's own columns are checked against the
reference scanner, and its ``words`` against the lint context's former
derivation from the token text.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vba.analyzer import analyze
from repro.vba.lexer import lex
from repro.vba.tokens import TokenKind
from tests.lint.test_rules_oracle import training_sources
from tests.vba import analyzer_oracle
from tests.vba.lexer_oracle import reference_tokenize
from tests.vba.test_frontend_golden import corpus_sources
from tests.vba.test_lexer_oracle import FRAGMENTS

LISTS = (
    "declared_identifiers",
    "identifier_uses",
    "call_sites",
    "string_literals",
    "comments",
    "procedure_names",
)

#: Words that steer the structural walk: procedure and declaration heads,
#: loop variables, ``Call``, callable builtins, member access.
STRUCTURE = (
    "Sub ", "Function ", "Property ", "Get ", "Let ", "Dim ", "Const ",
    "ReDim ", "Static ", "For ", "Each ", "Call ", "As ", "ByVal ", "End ",
    "Exit ", "CStr", "Chr$", "Shell ", "Mid", "o.", "f(", "x(", "Get$",
)


def _field_equal(name: str, got, want) -> None:
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    else:
        assert got == want, name


def assert_same_analysis(source: str) -> None:
    analysis = analyze(source)
    reference = analyzer_oracle.reference_analyze(source)
    for name in LISTS:
        assert getattr(analysis, name) == getattr(reference, name), (name, source)
    summary = analysis.ensure_summary()
    expected = analyzer_oracle.summarize(reference)
    for field in dataclasses.fields(summary):
        _field_equal(
            field.name, getattr(summary, field.name), getattr(expected, field.name)
        )


def lint_word(kind: TokenKind, text: str) -> str | None:
    """The lint context's word for a name before the table carried one."""
    if kind not in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
        return None
    word = text.lower()
    if word and word[-1] in "%&!#@$":
        word = word[:-1]
    return word


def assert_same_columns(source: str) -> None:
    table = lex(source)
    reference = reference_tokenize(source)
    assert table.kinds == [token.kind for token in reference], source
    assert table.texts == [token.text for token in reference], source
    assert table.lines == [token.line for token in reference], source
    assert table.columns == [token.column for token in reference], source
    assert table.words == [
        lint_word(token.kind, token.text) for token in reference
    ], source


def test_golden_corpus_matches_the_reference():
    for source in corpus_sources():
        assert_same_columns(source)
        assert_same_analysis(source)


def test_training_set_matches_the_reference():
    for source in training_sources():
        assert_same_analysis(source)


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS + STRUCTURE), max_size=40).map("".join))
def test_fragment_fuzz_matches_the_reference(source):
    assert_same_columns(source)
    assert_same_analysis(source)


def test_views_equal_the_reference_tokens():
    source = "Sub A(s$)\n  x = f(1) ' c\n  y = _\n  2\nEnd Sub"
    reference = reference_tokenize(source)
    table = lex(source)
    assert table.tokens() == reference
    assert table.code_tokens() == [
        token
        for token in reference
        if token.kind
        not in (TokenKind.WHITESPACE, TokenKind.COMMENT, TokenKind.LINE_CONTINUATION)
    ]
    assert table.code_tokens() is table.code_tokens()
