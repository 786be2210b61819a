"""Regression tests: how many ``Token`` objects each path builds.

Every ``Token`` the front end makes goes through one view constructor,
``repro.vba.lexer._token``; the tests count its calls.  Feature
extraction reads the table's columns only and must build no view at
all.  A scan with lint and recovery builds each code position's view
(everything but whitespace, comments and continuations) at most once per
macro: the recover parse, the ``aa-broken-code`` strict parse and the
lint context share them.
"""

from __future__ import annotations

import pytest

from repro import ObfuscationDetector
from repro.engine import AnalysisEngine
from repro.features.matrix import extract_matrices
from repro.vba import lexer
from repro.vba.lexer import LAYOUT_KINDS, lex
from tests.vba.test_frontend_golden import corpus_sources


@pytest.fixture
def view_count(monkeypatch):
    built = [0]
    make = lexer._token

    def counting(kind, text, line, column):
        built[0] += 1
        return make(kind, text, line, column)

    monkeypatch.setattr(lexer, "_token", counting)
    return built


def test_feature_matrices_build_no_views(view_count):
    matrices = extract_matrices(corpus_sources(), ("V", "J"))
    assert matrices["V"].shape[0] == len(corpus_sources())
    assert view_count[0] == 0


def test_a_scan_builds_each_code_view_at_most_once(view_count):
    sources = [source for source in corpus_sources() if source.strip()][:10]
    detector = ObfuscationDetector("RF").fit(sources, [0, 1] * 5)
    engine = AnalysisEngine.for_scan(detector, lint=True, recover=True)
    assert view_count[0] == 0
    code_positions = 0
    for source in sources:
        macro = engine.run_source(source)
        assert macro.verdict is not None
        code_positions += sum(
            1 for kind in lex(source).kinds if kind not in LAYOUT_KINDS
        )
    assert 0 < view_count[0] <= code_positions
