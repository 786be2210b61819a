"""Tests for the structural analyzer."""

import time

import pytest

from repro.vba.analyzer import analyze
from tests.features.test_batch_parity import _argument_lengths as nested_walk_lengths
from tests.vba.test_frontend_golden import corpus_sources

CALC_MACRO = (
    "Sub StartCalculator()\n"
    "    Dim Program As String\n"
    "    Dim TaskID As Double\n"
    "    On Error Resume Next\n"
    '    Program = "calc.exe"\n'
    "    'Run calculator program using Shell()\n"
    "    TaskID = Shell(Program, 1)\n"
    "    If Err <> 0 Then\n"
    '        MsgBox "Cannot start " & Program\n'
    "    End If\n"
    "End Sub\n"
)


class TestDeclarations:
    def test_procedure_name_is_declared(self):
        analysis = analyze(CALC_MACRO)
        assert "StartCalculator" in analysis.declared_identifiers
        assert analysis.procedure_names == ["StartCalculator"]

    def test_dim_variables_are_declared(self):
        analysis = analyze(CALC_MACRO)
        assert "Program" in analysis.declared_identifiers
        assert "TaskID" in analysis.declared_identifiers

    def test_multi_variable_dim(self):
        analysis = analyze("Dim a As Long, b As String, c\n")
        assert {"a", "b", "c"} <= set(analysis.declared_identifiers)

    def test_const_declaration_skips_initializer(self):
        analysis = analyze('Public Const pzonda = "a"\n')
        assert "pzonda" in analysis.declared_identifiers

    def test_function_parameters_are_declared(self):
        source = "Function Add(ByVal x As Long, Optional y As Long) As Long\nEnd Function\n"
        analysis = analyze(source)
        assert {"Add", "x", "y"} <= set(analysis.declared_identifiers)

    def test_parameter_types_are_not_declared(self):
        source = "Function F(a As Variant) As Long\nEnd Function\n"
        analysis = analyze(source)
        assert "Variant" not in analysis.declared_identifiers

    def test_for_each_variable(self):
        analysis = analyze("For Each cell In Columns(1).Cells\nNext\n")
        assert "cell" in analysis.declared_identifiers

    def test_for_loop_variable(self):
        analysis = analyze("For i = 1 To 10\nNext i\n")
        assert "i" in analysis.declared_identifiers

    def test_end_sub_declares_nothing(self):
        analysis = analyze("Sub A()\nEnd Sub\n")
        assert analysis.declared_identifiers == ["A"]

    def test_property_procedure(self):
        source = "Property Get Count() As Long\nEnd Property\n"
        analysis = analyze(source)
        assert "Count" in analysis.procedure_names

    def test_declarations_are_deduplicated(self):
        analysis = analyze("Dim x\nDim x\n")
        assert analysis.declared_identifiers.count("x") == 1


class TestCallSites:
    def test_parenthesized_call(self):
        analysis = analyze(CALC_MACRO)
        names = [c.name for c in analysis.call_sites]
        assert "Shell" in names

    def test_statement_style_builtin_call(self):
        analysis = analyze("Sub T()\n    Shell prog, 1\nEnd Sub\n")
        assert any(c.name == "Shell" for c in analysis.call_sites)

    def test_call_keyword(self):
        analysis = analyze("Call Helper\n")
        assert any(c.name == "Helper" for c in analysis.call_sites)

    def test_member_call_flagged(self):
        analysis = analyze('doc.SaveAs ("out.doc")\nx = Foo(1)\n')
        members = {c.name: c.is_member for c in analysis.call_sites}
        assert members.get("SaveAs") is True
        assert members.get("Foo") is False

    def test_builtin_fraction(self):
        source = 'Sub T()\n    a = Chr(65)\n    b = Mid(s, 1, 2)\n    c = Foo(1)\nEnd Sub\n'
        analysis = analyze(source)
        from repro.vba.functions import TEXT_FUNCTIONS

        assert analysis.called_builtin_fraction(TEXT_FUNCTIONS) == 2 / 3

    def test_builtin_fraction_empty(self):
        analysis = analyze("Dim x\n")
        from repro.vba.functions import TEXT_FUNCTIONS

        assert analysis.called_builtin_fraction(TEXT_FUNCTIONS) == 0.0


class TestTextMeasures:
    def test_strings_collected(self):
        analysis = analyze(CALC_MACRO)
        assert "calc.exe" in analysis.string_literals

    def test_comments_collected(self):
        analysis = analyze(CALC_MACRO)
        assert len(analysis.comments) == 1

    def test_code_without_comments_drops_comment_text(self):
        analysis = analyze(CALC_MACRO)
        assert "Run calculator" not in analysis.code_without_comments
        assert "Shell(Program, 1)" in analysis.code_without_comments

    def test_words_split_on_symbols(self):
        analysis = analyze('x=Foo(1,"ab cd")')
        assert "x" in analysis.words
        assert "Foo" in analysis.words
        assert "ab" in analysis.words

    def test_operator_count(self):
        analysis = analyze('s = "a" & "b" + "c"\n')
        assert analysis.operator_count(frozenset({"&", "+"})) == 2


class TestArgumentLengths:
    """J9's argument lengths: one stack pass against the nested walk."""

    @pytest.mark.parametrize(
        "source",
        [
            "x = f(a, g(b), (c))",
            "x = f(a)) + g(b",
            ") f( ( ) h(",
            "Call f(\n a, _\n b) ' c (",
            "x = f(",
            "f",
        ],
    )
    def test_matches_the_nested_walk_on_edge_cases(self, source):
        analysis = analyze(source)
        lengths = nested_walk_lengths(analysis)
        summary = analysis.ensure_summary()
        assert summary.argument_count == len(lengths)
        assert summary.argument_len_sum == sum(lengths)

    def test_matches_the_nested_walk_on_the_corpus(self):
        for source in corpus_sources():
            analysis = analyze(source)
            lengths = nested_walk_lengths(analysis)
            summary = analysis.ensure_summary()
            assert (summary.argument_count, summary.argument_len_sum) == (
                len(lengths),
                sum(lengths),
            )

    def test_unbalanced_parentheses_stay_linear(self):
        # Every ``f(`` is unclosed, so each argument list runs to the end
        # of the module; the nested walk needed ~20 s for this 16 KB input.
        calls = 8000
        analysis = analyze("Sub A()\nx = " + "f(" * calls)
        started = time.perf_counter()
        summary = analysis.ensure_summary()
        assert time.perf_counter() - started < 5.0
        assert summary.argument_count == calls + 1  # ``A()`` counts too
        assert summary.argument_len_sum == calls * (calls - 1)
