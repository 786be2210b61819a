"""Tests for the anti-analysis technique detectors: the ``AA`` lint rules.

The detectors are registered lint rules (:mod:`repro.lint.rules.antianalysis`);
each case here runs the ``AA`` class through the registry, as ``repro scan``
does for its ``anti_analysis`` field.
"""

from repro.lint.registry import lint_source, rules_for_class
from repro.obfuscation.antianalysis import (
    BrokenCodeInserter,
    FlowChanger,
    StringHider,
)
from repro.obfuscation.base import make_context

CLEAN = (
    "Sub Tidy()\n"
    "    Dim i As Long\n"
    "    For i = 1 To 10\n"
    "        Cells(i, 1).Value = i\n"
    "    Next i\n"
    "End Sub\n"
)

def scan_macro(source: str) -> list:
    """The ``AA`` findings for one macro."""
    return lint_source(source, rules_for_class("AA"))


def rule_ids(findings: list) -> set[str]:
    return {finding.rule_id for finding in findings}


PAYLOAD = (
    "Sub Document_Open()\n"
    "    Dim cmd As String\n"
    '    cmd = "powershell -enc AAAA and some more payload"\n'
    "    Shell cmd, 0\n"
    "End Sub\n"
)


class TestCleanCode:
    def test_clean_macro_has_no_findings(self):
        assert scan_macro(CLEAN) == []

    def test_ordinary_userform_use_is_reported_but_typed(self):
        # Reading captions is the hidden-string channel; the detector flags
        # it and downstream logic decides what to do with the signal.
        source = "Sub A()\n    x = UserForm1.Label1.Caption\nEnd Sub\n"
        assert rule_ids(scan_macro(source)) == {"aa-hidden-strings"}


class TestHiddenStrings:
    def test_string_hider_output_detected(self):
        context = make_context(3)
        hidden = StringHider(hide_probability=1.0, min_length=4).apply(
            PAYLOAD, context
        )
        findings = scan_macro(hidden)
        assert "aa-hidden-strings" in rule_ids(findings)
        assert any("document-storage read" in f.message for f in findings)

    def test_document_variables_pattern(self):
        source = (
            "Sub A()\n"
            '    x = ActiveDocument.Variables("k").Value()\n'
            "End Sub\n"
        )
        assert "aa-hidden-strings" in rule_ids(scan_macro(source))


class TestBrokenCode:
    def test_broken_code_inserter_output_detected(self):
        out = BrokenCodeInserter().apply(PAYLOAD, make_context(5))
        assert "aa-broken-code" in rule_ids(scan_macro(out))

    def test_exit_sub_without_broken_code_is_fine(self):
        source = (
            "Sub A()\n"
            "    x = 1\n"
            "    Exit Sub\n"
            "    x = 2\n"
            "End Sub\n"
        )
        assert "aa-broken-code" not in rule_ids(scan_macro(source))

    def test_broken_code_without_exit_not_flagged_as_this_technique(self):
        source = "Sub A()\n    Next nothing\nEnd Sub\n"
        assert "aa-broken-code" not in rule_ids(scan_macro(source))


class TestFlowEvasion:
    def test_flow_changer_output_detected(self):
        out = FlowChanger().apply(PAYLOAD, make_context(1))
        found = rule_ids(scan_macro(out))
        # Some guards (Now() > date) are time-based and not in the rule set;
        # the environment-check guards must be caught.
        if "If RecentFiles" in out or "Environ" in out or "Windows.Count" in out:
            assert "aa-flow-evasion" in found

    def test_guard_patterns(self):
        source = (
            "Sub A()\n"
            "    If RecentFiles.Count > 2 Then\n"
            "        Shell cmd, 0\n"
            "    End If\n"
            "End Sub\n"
        )
        assert "aa-flow-evasion" in rule_ids(scan_macro(source))

    def test_environ_outside_condition_not_flagged(self):
        source = 'Sub A()\n    user = Environ("USERNAME")\nEnd Sub\n'
        assert "aa-flow-evasion" not in rule_ids(scan_macro(source))


class TestCombined:
    def test_all_three_together(self):
        context = make_context(9)
        source = StringHider(hide_probability=1.0, min_length=4).apply(
            PAYLOAD, context
        )
        source = FlowChanger().apply(source, context)
        source = BrokenCodeInserter().apply(source, context)
        findings = scan_macro(source)
        assert "aa-hidden-strings" in rule_ids(findings)
        assert len(findings) >= 2
