"""Tests for the LintStage wired into the staged engine."""

import random

import pytest

from repro.corpus.benign import generate_benign_module
from repro.corpus.documents import build_document_bytes
from repro.corpus.malicious import generate_malicious_macro
from repro.engine import AnalysisEngine
from repro.engine.stages import LintStage
from repro.obfuscation.pipeline import default_pipeline


@pytest.fixture(scope="module")
def documents():
    rng = random.Random(23)
    benign = [generate_benign_module(rng) for _ in range(3)]
    pipeline = default_pipeline()
    obfuscated = [
        pipeline.run(generate_malicious_macro(rng, "word"), seed=index).source
        for index in range(3)
    ]
    return [
        build_document_bytes([source], "docm")
        for source in benign + obfuscated
    ]


class TestLintStage:
    def test_for_lint_attaches_findings(self, documents):
        records = AnalysisEngine.for_lint().run_batch(documents)
        benign, obfuscated = records[:3], records[3:]
        for record in benign:
            assert record.ok
            assert all(not macro.findings for macro in record.macros)
        for record in obfuscated:
            assert record.ok
            assert any(macro.findings for macro in record.macros)

    def test_findings_survive_in_to_dict(self, documents):
        record = AnalysisEngine.for_lint().run(documents[-1])
        payload = record.to_dict()
        findings = payload["macros"][0]["findings"]
        assert findings, "obfuscated document should carry findings"
        assert {"rule_id", "o_class", "severity", "line", "span"} <= set(
            findings[0]
        )

    def test_rule_subset_restricts_findings(self, documents):
        engine = AnalysisEngine.for_lint(rules=("o1-gibberish-identifier",))
        record = engine.run(documents[-1])
        kinds = {
            finding.rule_id
            for macro in record.macros
            for finding in macro.findings
        }
        assert kinds <= {"o1-gibberish-identifier"}

    def test_unknown_rule_id_fails_fast(self):
        with pytest.raises(KeyError):
            LintStage(rules=("no-such-rule",))

    def test_jobs_parity(self, documents):
        serial = AnalysisEngine.for_lint().run_batch(documents, jobs=1)
        parallel = AnalysisEngine.for_lint().run_batch(documents, jobs=2)
        for left, right in zip(serial, parallel):
            left_findings = [m.findings for m in left.macros]
            right_findings = [m.findings for m in right.macros]
            assert left_findings == right_findings

    def test_scan_with_lint_keeps_verdict_and_findings(self, documents):
        from repro import ObfuscationDetector

        rng = random.Random(5)
        benign = [generate_benign_module(rng) for _ in range(4)]
        pipeline = default_pipeline()
        bad = [
            pipeline.run(
                generate_malicious_macro(rng, "word"), seed=index
            ).source
            for index in range(2)
        ]
        detector = ObfuscationDetector("RF").fit(
            benign + bad, [0] * len(benign) + [1] * len(bad)
        )
        engine = AnalysisEngine.for_scan(detector, lint=True)
        record = engine.run(documents[-1])
        macro = record.macros[0]
        assert macro.verdict is not None
        assert macro.findings

    def test_run_source_runs_lint(self):
        macro = AnalysisEngine.for_lint().run_source(
            's = "po" & "we" & "rs"\n'
        )
        assert [f.rule_id for f in macro.findings] == ["o2-literal-concat"]


def deep_nesting_macro(depth: int = 3000) -> str:
    """Split-string junk, an early ``Exit Sub``, then an expression nested
    deeper than the parser's stack allows."""
    return (
        "Sub Deep()\n"
        '    s = "pow" & "ers" & "hell"\n'
        "    Exit Sub\n"
        "    x = " + "(" * depth + "1" + ")" * depth + "\n"
        "End Sub\n"
    )


class TestDeepNesting:
    @pytest.mark.parametrize("recover", [False, True], ids=["lint", "recover"])
    def test_run_source_lints_a_macro_too_deep_to_parse(self, recover):
        macro = AnalysisEngine.for_lint(recover=recover).run_source(
            deep_nesting_macro()
        )
        rule_ids = {finding.rule_id for finding in macro.findings}
        assert {"o2-literal-concat", "o4-unreachable-code"} <= rule_ids
        assert "aa-broken-code" not in rule_ids
        if recover:
            assert macro.recovery.parse_failed

    def test_a_document_lints_every_macro_after_the_deep_one(self):
        second = 'Sub Other()\n    t = "po" & "we" & "rs"\nEnd Sub\n'
        blob = build_document_bytes([deep_nesting_macro(), second], "docm")
        record = AnalysisEngine.for_lint(recover=True).run(blob)
        assert not record.degraded
        assert not any(
            "stage crashed" in diagnostic.message for diagnostic in record.diagnostics
        )
        assert len(record.macros) == 2
        assert all(macro.findings for macro in record.macros)


class TestBareRadixLiteral:
    @pytest.mark.parametrize("literal", ["&H", "&O", "&H&"])
    def test_a_document_recovers_every_macro(self, literal):
        first = f'Sub A()\n    x = {literal}\n    t = "po" & "we" & "rs"\nEnd Sub\n'
        second = 'Sub Other()\n    t = "po" & "we" & "rs"\nEnd Sub\n'
        blob = build_document_bytes([first, second], "docm")
        record = AnalysisEngine.for_lint(recover=True).run(blob)
        assert not record.degraded
        assert not any(
            "stage crashed" in diagnostic.message for diagnostic in record.diagnostics
        )
        assert len(record.macros) == 2
        for macro in record.macros:
            assert [found.value for found in macro.recovery.strings] == ["powers"]
