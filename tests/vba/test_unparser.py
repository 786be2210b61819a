"""Tests for literal rendering and for the reference unparser.

:func:`repro.vba.tokens.render_literal` spells the literals the
de-obfuscation engine splices into a module.  The unparser lives on as
``tests/vba/unparser_oracle.py``, the normal form the splice is compared
with against the previous engine (``tests/deobfuscation/test_splice.py``);
the fixpoint, semantics and statement-call tests here pin that it
normalizes faithfully.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.benign import generate_benign_macro
from repro.corpus.malicious import generate_malicious_macro
from repro.vba.interpreter import run_function
from repro.vba.parser import parse_module, parse_tolerant
from repro.vba.tokens import render_literal
from tests.vba.unparser_oracle import unparse_module

ROUND_TRIP_SOURCES = [
    # Expressions with every operator / precedence interaction.
    "Function F(a, b)\n    F = a + b * 2 - (a - b) \\ 3 Mod 2\nEnd Function\n",
    'Function G(s)\n    G = "x" & s & Chr(65) & UCase(Mid(s, 1, 2))\nEnd Function\n',
    "Function H(x)\n    H = Not (x > 1 And x < 9 Or x = 5)\nEnd Function\n",
    "Function P(x)\n    P = 2 ^ x ^ 2\nEnd Function\n",
    # Statements.
    "Sub S()\n    Dim a(5)\n    a(0) = 1\n    a(1) = a(0) + 1\nEnd Sub\n",
    (
        "Sub T()\n"
        "    Dim i As Long\n"
        "    For i = 1 To 10 Step 2\n"
        "        If i > 5 Then\n"
        "            Exit For\n"
        "        ElseIf i = 3 Then\n"
        "            i = i + 1\n"
        "        Else\n"
        "            DoEvents\n"
        "        End If\n"
        "    Next i\n"
        "End Sub\n"
    ),
    (
        "Sub U()\n"
        "    Dim x\n"
        "    Do While x < 5\n"
        "        x = x + 1\n"
        "    Loop\n"
        "    Do\n"
        "        x = x - 1\n"
        "    Loop While x > 0\n"
        "End Sub\n"
    ),
    (
        "Sub V()\n"
        "    Dim item\n"
        '    For Each item In Array(1, 2, 3)\n'
        "        total = total + item\n"
        "    Next item\n"
        "End Sub\n"
    ),
    # Member access and host-style statements.
    (
        "Sub W()\n"
        "    Selection.RowHeight = 15\n"
        '    doc.SaveAs "out.doc", 1\n'
        "    x = ActiveDocument.Content.Font.Size\n"
        "End Sub\n"
    ),
    'Const greeting = "say ""hi"" now"\n',
]


def normalize(source: str, tolerant: bool = False) -> str:
    module = parse_tolerant(source).module if tolerant else parse_module(source)
    return unparse_module(module)


class TestFixpoint:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_unparse_reaches_fixpoint(self, source):
        once = normalize(source)
        twice = normalize(once)
        assert once == twice

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_benign_macros_fixpoint(self, seed):
        source = generate_benign_macro(random.Random(seed))
        once = normalize(source, tolerant=True)
        assert normalize(once, tolerant=True) == once

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_malicious_macros_fixpoint(self, seed):
        source = generate_malicious_macro(random.Random(seed), "excel")
        once = normalize(source, tolerant=True)
        assert normalize(once, tolerant=True) == once


class TestSemanticsPreserved:
    def test_arith_function_same_results(self):
        source = (
            "Function Mix(a, b)\n"
            "    Mix = (a + b) * (a - b) \\ 2 Mod 7 + a ^ 2\n"
            "End Function\n"
        )
        rendered = normalize(source)
        for a, b in ((3, 1), (10, 4), (-5, 2)):
            assert run_function(rendered, "Mix", a, b) == run_function(
                source, "Mix", a, b
            )

    def test_string_function_same_results(self):
        source = (
            "Function Build(s)\n"
            '    Build = UCase(Left(s, 3)) & "-" & Len(s) & "-" & '
            "StrReverse(s)\n"
            "End Function\n"
        )
        rendered = normalize(source)
        for value in ("hello", "x", "abcdef"):
            assert run_function(rendered, "Build", value) == run_function(
                source, "Build", value
            )

    def test_control_flow_same_results(self):
        source = (
            "Function Collatz(n)\n"
            "    Dim steps As Long\n"
            "    Do While n > 1\n"
            "        If n Mod 2 = 0 Then\n"
            "            n = n \\ 2\n"
            "        Else\n"
            "            n = 3 * n + 1\n"
            "        End If\n"
            "        steps = steps + 1\n"
            "    Loop\n"
            "    Collatz = steps\n"
            "End Function\n"
        )
        rendered = normalize(source)
        for n in (1, 6, 27):
            assert run_function(rendered, "Collatz", n) == run_function(
                source, "Collatz", n
            )

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.integers(min_value=-100, max_value=100),
        b=st.integers(min_value=1, max_value=100),
    )
    def test_property_arith_round_trip(self, a, b):
        source = (
            "Function F(a, b)\n"
            "    F = a * 3 - b \\ 2 + (a Mod b) & \"!\"\n"
            "End Function\n"
        )
        rendered = normalize(source)
        assert run_function(rendered, "F", a, b) == run_function(source, "F", a, b)


class TestExpressionRendering:
    def test_precedence_parentheses_kept_where_needed(self):
        source = "Function F(a, b)\n    F = (a + b) * 2\nEnd Function\n"
        rendered = normalize(source)
        assert "(a + b) * 2" in rendered

    def test_no_redundant_parentheses(self):
        source = "Function F(a, b)\n    F = (a * b) + 2\nEnd Function\n"
        rendered = normalize(source)
        assert "a * b + 2" in rendered

    def test_string_literal_escaping(self):
        assert render_literal('say "hi"') == ('"say ""hi"""', True)

    def test_power_right_associativity(self):
        source = "Function F(x)\n    F = 2 ^ 3 ^ 2\nEnd Function\n"
        rendered = normalize(source)
        assert run_function(rendered, "F", 0) == 512


class TestStatementPositionCalls:
    """A member call in statement position takes bare arguments: VBA
    rejects ``obj.Run("calc", 0)`` without ``Call``."""

    @staticmethod
    def round_trip(statement: str) -> str:
        module = parse_module(f"Sub S()\n    {statement}\nEnd Sub\n")
        rendered = unparse_module(module)
        assert parse_module(rendered) == module
        return rendered.splitlines()[1].strip()

    @pytest.mark.parametrize(
        "statement, expected",
        [
            ('doc.SaveAs "out.doc"', 'doc.SaveAs "out.doc"'),
            ('doc.SaveAs "out.doc", 1', 'doc.SaveAs "out.doc", 1'),
            (
                'CreateObject("WScript.Shell").Run "calc", 0, False',
                'CreateObject("WScript.Shell").Run "calc", 0, False',
            ),
            ("o.M (1)", "o.M 1"),
            ("o.M -1, x & y", "o.M -1, x & y"),
        ],
    )
    def test_member_call_arguments_are_bare(self, statement, expected):
        assert self.round_trip(statement) == expected

    @pytest.mark.parametrize(
        "statement, expected",
        [
            ("Call o.M(1)", "o.M 1"),
            ("Call o.M(1, 2)", "o.M 1, 2"),
            ('Call CreateObject("x").N.M(a, "b", 3)', 'CreateObject("x").N.M a, "b", 3'),
            ("Call o.M()", "o.M()"),
            ("Call o.M", "o.M"),
        ],
    )
    def test_call_keyword_form(self, statement, expected):
        assert self.round_trip(statement) == expected

    @pytest.mark.parametrize(
        "statement, expected",
        [
            ("Call o.M((1 + 2) * 3, 4)", "Call o.M((1 + 2) * 3, 4)"),
            ("Call F((a + b) * c)", "Call F((a + b) * c)"),
        ],
    )
    def test_parenthesized_first_argument_keeps_call(self, statement, expected):
        assert self.round_trip(statement) == expected


class TestLiteralRendering:
    @pytest.mark.parametrize(
        "value, expected",
        [
            ("", ('""', True)),
            ("a\r\nb", ('"a" & Chr(13) & Chr(10) & "b"', False)),
            ("\n", ("Chr(10)", True)),
            ('\t"q"', ('Chr(9) & """q"""', False)),
            (7, ("7", True)),
            (-7, ("-7", False)),
            (2.5, ("2.5", True)),
            (-0.0, ("-0.0", False)),
            (True, ("True", True)),
            (None, ("Empty", True)),
        ],
    )
    def test_render_literal(self, value, expected):
        assert render_literal(value) == expected
