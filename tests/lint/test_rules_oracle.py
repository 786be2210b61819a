"""Differential tests: the indexed lint rules against the reference rules.

:mod:`tests.lint.rules_oracle` keeps the context and rules that walked
every token or statement through the ``is_*`` predicates.  The production
rules jump to anchor tokens through the context's word index instead, and
must yield the same findings — every field, in the same report order — on
the front-end golden corpus, the detector's training set, the scan-paper
corpora of two seeds, each rule run alone, and a seeded token soup built
around every anchor and neighbour the rules test.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.corpus.benign import generate_benign_module
from repro.corpus.builder import CorpusBuilder, paper_profile
from repro.corpus.malicious import generate_malicious_macro
from repro.lint import LintContext, lint_analysis, rule_ids
from repro.obfuscation.pipeline import default_pipeline
from repro.sa.interpreter import recover_strings
from repro.vba.analyzer import analyze
from tests.lint.rules_oracle import ORACLE_RULES, oracle_lint
from tests.vba.test_frontend_golden import corpus_sources

#: Scale of the ``perfbench`` scan-paper corpus.
SCAN_PAPER_SCALE = 0.04


@functools.cache
def training_sources() -> tuple[str, ...]:
    """The sources ``repro scan`` trains its detector on (seed 42)."""
    rng = random.Random(42)
    sources = [
        generate_benign_module(rng, target_length=rng.randint(200, 8000))
        for _ in range(150)
    ]
    pipeline = default_pipeline()
    for index in range(75):
        plain = generate_malicious_macro(rng, rng.choice(("word", "excel")))
        sources.append(pipeline.run(plain, seed=index).source)
    return tuple(sources)


def scan_paper_sources(seed: int) -> tuple[str, ...]:
    built = CorpusBuilder(paper_profile().scaled(SCAN_PAPER_SCALE), seed=seed).build()
    return tuple(sorted(built.truth))


#: Fragments around every anchor, neighbour and statement break the rules
#: look at, plus layout that the significant stream drops.
SOUP = (
    "Sub", "Function", "Private", "Public", "Friend", "Static", "Global",
    "Dim", "Const", "As", "String", "Exit", "End", "If", "Then", "ElseIf",
    "While", "Until", "For", "Next", "Do", "Loop", "Wend", "With", "Select",
    "Xor", "And", "Not", "Mod", "Property",
    "Mid", "Mid$", "Left", "Right$", "StrReverse", "Chr", "ChrW$", "ChrB",
    "Array", "Replace", "Timer", "GetTickCount", "RecentFiles", "Application",
    "Windows", "Count", "Environ", "MousePointer", "Variables",
    "CustomDocumentProperties", "Caption", "ControlTipText", "Tag",
    "UserForm1", "userform", "UserForm2$", "Auto_Open", "x", "x$", "abc",
    "qzxwvkt", "zzkrpt", "s",
    '"ab"', '"USERNAME"', '"computername"', '"A1B2C3D4"', '""', '"x"',
    '"QUJDREVGR0hJSktMTU5PUA=="', '"pow"',
    "0", "1", "65", "3", "&H1F",
    "(", ")", ",", ".", ":", "=", "&", "+", "-", "*", "/", "\\", "^",
    " ", " ", "\n", "\n", " _\n", "' note\n", "\r\n", "#1/2/2016#",
)

#: Whole shapes that random single tokens rarely line up into.
PHRASES = (
    "Chr(65)", "ChrW(x Xor 3)", "Chr$(b(i) - 105)", "Array(1, 2, 3, 4, 5)",
    "Array(1, (2), 3, 4)", 'Replace("abXY", "XY", "")', 'Mid("abc", 2)',
    "Exit Sub", "Exit Function", "End Sub", "End If", "End With",
    'Const c = "ab"', 'Private Const k As String = "abcd", m = "x"',
    "Private Sub p()", "Private Static Function q()", "Static Sub r()",
    "Dim a, b(3) As Long", "Public Dim z", "For i = 1 To 3", "Do While x",
    'If Environ("USERNAME") = "x" Then', "Application.Windows.Count",
    "RecentFiles.Count", ".MousePointer", '"ab" & "cd" & "e"', '"abcdef" + "x"',
    "x = x", "+ 0", "* 1", "\\ 1", 'ActiveDocument.Variables("k")',
    "UserForm1.Caption", "x = = 1", "f( (",
)


def token_soup(seed: int) -> str:
    rng = random.Random(seed)
    pieces = SOUP + PHRASES * 2
    return " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 120)))


def _assert_same(source: str, rules=None, *, recover: bool = False) -> None:
    analysis = analyze(source)
    recovery = recover_strings(source, analysis=analysis) if recover else None
    assert lint_analysis(analysis, rules, recovery=recovery) == oracle_lint(
        analysis, rules, recovery=recovery
    ), repr(source[:200])


def test_oracle_covers_every_registered_rule():
    assert sorted(ORACLE_RULES) == list(rule_ids())


@pytest.mark.parametrize("recover", [False, True], ids=["plain", "recovered"])
def test_golden_corpus(recover):
    for source in corpus_sources():
        _assert_same(source, recover=recover)


def test_training_set():
    for source in training_sources():
        _assert_same(source)


@pytest.mark.parametrize("seed", [1, 3])
def test_scan_paper_corpus(seed):
    for source in scan_paper_sources(seed):
        _assert_same(source)


@pytest.mark.parametrize("rule_id", sorted(ORACLE_RULES))
def test_each_rule_alone(rule_id):
    for source in corpus_sources():
        _assert_same(source, (rule_id,))


#: Neighbours that sit across a statement break: the rules must not see
#: them, however close they are in the significant stream.
EDGE_SOURCES = (
    "y = Application.\nWindows.Count If",
    "If x Then y = RecentFiles.\nCount",
    'If Environ\n("USERNAME") Then',
    '"ab" &\n"cd" & "e"',
    "x = a +\n0",
    "Chr(1) & Chr(2)\nChr(3)",
    "Private Const\nk = \"ab\"",
    "For i = 1 To 2: s = Chr(i Xor 3): Next",
    "Exit Sub: x = x\nEnd Sub",
)


def test_statement_edges():
    for source in EDGE_SOURCES:
        _assert_same(source)


def test_token_soup():
    for seed in range(1500):
        _assert_same(token_soup(seed))


def test_token_soup_each_rule_alone():
    sources = [token_soup(seed) for seed in range(150)]
    for rule_id in sorted(ORACLE_RULES):
        for source in sources:
            _assert_same(source, (rule_id,))


def test_statements_are_rebuilt_from_bounds():
    for source in (*corpus_sources(), *(token_soup(seed) for seed in range(300))):
        analysis = analyze(source)
        assert _statements(LintContext(analysis)) == _oracle_statements(analysis)


def _statements(ctx):
    """Each statement as (kind, text, line, column) per position."""
    rows = list(zip(ctx.kinds, ctx.texts, ctx.lines, ctx.columns))
    return [rows[start:end] for start, end in ctx.statement_bounds]


def _oracle_statements(analysis):
    from tests.lint.rules_oracle import LintContext as OracleContext

    return [
        [(token.kind, token.text, token.line, token.column) for token in statement]
        for statement in OracleContext(analysis).statements
    ]
