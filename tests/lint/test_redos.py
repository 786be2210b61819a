"""Pathological-input regression: lint must stay fast on megabyte lines.

Hostile macros pack whole payloads onto one physical line; every rule that
re-reads line text goes through ``LintContext.line_text``, which caps the
scanned prefix at :data:`MAX_LINE_SCAN_CHARS`.  These tests feed a
multi-megabyte single-line module through *every registered rule* and hold
the sweep to a wall-clock budget.
"""

import time

from repro.lint import LintContext, lint_source, rule_ids
from repro.lint.context import MAX_LINE_SCAN_CHARS
from repro.vba.analyzer import analyze

#: Generous CI budget for one full-rule sweep over the hostile module; the
#: pre-guard behavior was tens of seconds and scaled with line length.
SWEEP_BUDGET_S = 20.0


def hostile_module(payload_chars: int) -> str:
    # One huge string literal on one line — the classic packed payload.
    payload = "A" * payload_chars
    return (
        "Sub Detonate()\n"
        f'    s = "{payload}"\n'
        "    x = 1: y = 2\n"
        "End Sub\n"
    )


class TestLineScanCap:
    def test_line_text_is_capped(self):
        context = LintContext(analyze(hostile_module(3 * 1024 * 1024)))
        assert len(context.line_text(2)) <= MAX_LINE_SCAN_CHARS

    def test_evidence_is_capped(self):
        analysis = analyze(hostile_module(1024 * 1024))
        context = LintContext(analysis)
        assert context.texts[0] == "Sub"
        assert len(context.evidence(0)) <= 120


class TestRuleSweepBudget:
    def test_every_rule_survives_a_megabyte_line(self):
        source = hostile_module(3 * 1024 * 1024)
        started = time.perf_counter()
        findings = lint_source(source)
        elapsed = time.perf_counter() - started
        assert elapsed < SWEEP_BUDGET_S, (
            f"full-rule sweep took {elapsed:.1f}s on a 3 MiB line "
            f"(budget {SWEEP_BUDGET_S:g}s)"
        )
        assert rule_ids()  # the registry ran non-empty
        for finding in findings:
            # No finding may drag megabytes of evidence along with it.
            assert len(finding.evidence) <= 4 * MAX_LINE_SCAN_CHARS
