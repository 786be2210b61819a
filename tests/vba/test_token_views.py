"""Regression tests: how many ``Token`` objects each path builds.

Every ``Token`` the front end makes goes through one view constructor,
``repro.vba.lexer._token``; the tests count its calls.  Feature
extraction, the parser, the lint context and the recover pass read the
table's columns only, so none of them builds a view: a scan with lint and
recovery builds no ``Token`` at all.
"""

from __future__ import annotations

import pytest

from repro import ObfuscationDetector
from repro.engine import AnalysisEngine
from repro.features.matrix import extract_matrices
from repro.vba import lexer
from repro.vba.parser import parse_tolerant
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


def test_parse_module_builds_no_views(view_count):
    for source in corpus_sources():
        parse_tolerant(source)
    assert view_count[0] == 0


def test_a_scan_with_lint_and_recover_builds_no_views(view_count):
    sources = [source for source in corpus_sources() if source.strip()][:10]
    detector = ObfuscationDetector("RF").fit(sources, [0, 1] * 5)
    engine = AnalysisEngine.for_scan(detector, lint=True, recover=True)
    for source in sources:
        macro = engine.run_source(source)
        assert macro.verdict is not None
        assert macro.recovery is not None
    assert any(engine.run_source(source).findings for source in sources)
    assert view_count[0] == 0
