"""Tests for the VBA subset parser and interpreter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vba.interpreter import (
    Interpreter,
    VBARuntimeError,
    evaluate_expression,
    run_function,
)
from repro.vba.parser import VBAParseError, parse_module


def run_expr(expression: str, module: str = "") -> object:
    return evaluate_expression(expression, module_source=module)


class TestExpressions:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("1 + 2", 3),
            ("2 * 3 + 4", 10),
            ("2 + 3 * 4", 14),
            ("10 / 4", 2.5),
            ("10 \\ 4", 2),
            ("-7 \\ 2", -3),  # truncation toward zero
            ("10 Mod 3", 1),
            ("-10 Mod 3", -1),  # sign of dividend
            ("2 ^ 10", 1024),
            ("2 ^ 3 ^ 2", 512),  # right-associative
            ("-2 ^ 2", -4),  # unary binds looser than ^ on the left operand
            ('"a" & "b"', "ab"),
            ('"a" + "b"', "ab"),
            ('1 & 2', "12"),
            ("1 = 1", True),
            ("1 <> 2", True),
            ('"abc" < "abd"', True),
            ("True And False", False),
            ("True Or False", True),
            ("Not True", False),
            ("5 Xor 3", 6),
            ("True Xor False", True),
            ("&HFF", 255),
            ("&O17", 15),
            ("(1 + 2) * 3", 9),
        ],
    )
    def test_expression_values(self, expression, expected):
        assert run_expr(expression) == expected

    def test_true_is_minus_one_in_arithmetic(self):
        assert run_expr("True + 1") == 0

    def test_division_by_zero(self):
        with pytest.raises(VBARuntimeError):
            run_expr("1 / 0")
        with pytest.raises(VBARuntimeError):
            run_expr("1 \\ 0")
        with pytest.raises(VBARuntimeError):
            run_expr("1 Mod 0")


class TestBuiltins:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("Chr(65)", "A"),
            ('Asc("A")', 65),
            ('Len("hello")', 5),
            ('Mid("hello", 2, 3)', "ell"),
            ('Mid("hello", 3)', "llo"),
            ('Left("hello", 2)', "he"),
            ('Right("hello", 3)', "llo"),
            ('Replace("savteRKtofilteRK", "teRK", "e")', "savetofile"),
            ('InStr("hello", "ll")', 3),
            ('InStr("hello", "zz")', 0),
            ('InStr(3, "hello hello", "he")', 7),
            ('LCase("AbC")', "abc"),
            ('UCase("AbC")', "ABC"),
            ('Trim("  x  ")', "x"),
            ("Space(3)", "   "),
            ('String(3, "x")', "xxx"),
            ('StrReverse("abc")', "cba"),
            ('Join(Array("a", "b"), "-")', "a-b"),
            ("UBound(Array(1, 2, 3))", 2),
            ("LBound(Array(1, 2, 3))", 0),
            ("CStr(42)", "42"),
            ('CLng("42")', 42),
            ('Val("&H41")', 65),
            ('Val("12abc")', 12),
            ('Val("junk")', 0),
            ("Hex(255)", "FF"),
            ("Abs(-3)", 3),
            ("Sqr(16)", 4.0),
            ("Int(-1.5)", -2),
            ("Fix(-1.5)", -1),
            ("Sgn(-9)", -1),
            ('IsNumeric("3.5")', True),
            ('IsNumeric("x")', False),
        ],
    )
    def test_builtin_values(self, expression, expected):
        assert run_expr(expression) == expected

    def test_split_builtin(self):
        assert run_expr('Join(Split("a,b,c", ","), "")') == "abc"

    def test_chr_out_of_range(self):
        with pytest.raises(VBARuntimeError):
            run_expr("Chr(-1)")


class TestProceduresAndControlFlow:
    def test_function_return_via_name_assignment(self):
        source = (
            "Function Double_(x As Long) As Long\n"
            "    Double_ = x * 2\n"
            "End Function\n"
        )
        assert run_function(source, "Double_", 21) == 42

    def test_sub_returns_none_and_mutates_global(self):
        source = (
            "Dim total As Long\n"
            "Sub AddTo(x As Long)\n"
            "    total = total + x\n"
            "End Sub\n"
        )
        interp = Interpreter.from_source(source)
        assert interp.call("AddTo", 5) is None
        interp.call("AddTo", 7)
        assert interp.global_value("total") == 12

    def test_if_elseif_else(self):
        source = (
            "Function Classify(x) As String\n"
            "    If x > 10 Then\n"
            '        Classify = "big"\n'
            "    ElseIf x > 5 Then\n"
            '        Classify = "mid"\n'
            "    Else\n"
            '        Classify = "small"\n'
            "    End If\n"
            "End Function\n"
        )
        interp = Interpreter.from_source(source)
        assert interp.call("Classify", 20) == "big"
        assert interp.call("Classify", 7) == "mid"
        assert interp.call("Classify", 1) == "small"

    def test_single_line_if_with_else(self):
        source = (
            "Function Pick(x) As String\n"
            '    If x > 0 Then Pick = "pos" Else Pick = "neg"\n'
            "End Function\n"
        )
        interp = Interpreter.from_source(source)
        assert interp.call("Pick", 3) == "pos"
        assert interp.call("Pick", -3) == "neg"

    def test_for_loop_with_step(self):
        source = (
            "Function SumEven(n) As Long\n"
            "    Dim i As Long\n"
            "    SumEven = 0\n"
            "    For i = 0 To n Step 2\n"
            "        SumEven = SumEven + i\n"
            "    Next i\n"
            "End Function\n"
        )
        assert run_function(source, "SumEven", 10) == 30

    def test_for_loop_descending(self):
        source = (
            "Function CountDown() As String\n"
            "    Dim i As Long\n"
            '    CountDown = ""\n'
            "    For i = 3 To 1 Step -1\n"
            "        CountDown = CountDown & i\n"
            "    Next\n"
            "End Function\n"
        )
        assert run_function(source, "CountDown") == "321"

    def test_for_each_over_array(self):
        source = (
            "Function Concat() As String\n"
            "    Dim item\n"
            '    Concat = ""\n'
            '    For Each item In Array("x", "y", "z")\n'
            "        Concat = Concat & item\n"
            "    Next\n"
            "End Function\n"
        )
        assert run_function(source, "Concat") == "xyz"

    def test_do_while_and_colon_separator(self):
        # Mirrors the paper's Fig. 2 example.
        source = (
            "Sub ueiwjfdjkfdsv()\n"
            "    Dim yruuehdjdnnz As Integer\n"
            "    yruuehdjdnnz = 2\n"
            "    Do While yruuehdjdnnz < 45\n"
            "        DoEvents: yruuehdjdnnz = yruuehdjdnnz + 1\n"
            "    Loop\n"
            "End Sub\n"
        )
        Interpreter.from_source(source).call("ueiwjfdjkfdsv")

    def test_do_loop_while_post_test(self):
        source = (
            "Function AtLeastOnce() As Long\n"
            "    AtLeastOnce = 0\n"
            "    Do\n"
            "        AtLeastOnce = AtLeastOnce + 1\n"
            "    Loop While False\n"
            "End Function\n"
        )
        assert run_function(source, "AtLeastOnce") == 1

    def test_do_until(self):
        source = (
            "Function UpTo5() As Long\n"
            "    UpTo5 = 0\n"
            "    Do Until UpTo5 >= 5\n"
            "        UpTo5 = UpTo5 + 1\n"
            "    Loop\n"
            "End Function\n"
        )
        assert run_function(source, "UpTo5") == 5

    def test_while_wend(self):
        source = (
            "Function W() As Long\n"
            "    W = 0\n"
            "    While W < 3\n"
            "        W = W + 1\n"
            "    Wend\n"
            "End Function\n"
        )
        assert run_function(source, "W") == 3

    def test_exit_for_and_exit_function(self):
        source = (
            "Function FirstOver(limit) As Long\n"
            "    Dim i As Long\n"
            "    For i = 1 To 100\n"
            "        If i * i > limit Then\n"
            "            FirstOver = i\n"
            "            Exit For\n"
            "        End If\n"
            "    Next\n"
            "End Function\n"
        )
        assert run_function(source, "FirstOver", 50) == 8

    def test_exit_sub_skips_rest(self):
        source = (
            "Dim flag As Long\n"
            "Sub Go()\n"
            "    flag = 1\n"
            "    Exit Sub\n"
            "    flag = 2\n"
            "End Sub\n"
        )
        interp = Interpreter.from_source(source)
        interp.call("Go")
        assert interp.global_value("flag") == 1

    def test_procedure_calls_procedure(self):
        source = (
            "Function Add(a, b)\n"
            "    Add = a + b\n"
            "End Function\n"
            "Function Quad(x)\n"
            "    Quad = Add(Add(x, x), Add(x, x))\n"
            "End Function\n"
        )
        assert run_function(source, "Quad", 3) == 12

    def test_call_statement_forms(self):
        source = (
            "Dim log As String\n"
            "Sub Append(s)\n"
            "    log = log & s\n"
            "End Sub\n"
            "Sub Main()\n"
            '    log = ""\n'
            '    Call Append("a")\n'
            '    Append "b"\n'
            '    Append ("c")\n'
            "End Sub\n"
        )
        interp = Interpreter.from_source(source)
        interp.call("Main")
        assert interp.global_value("log") == "abc"


class TestArraysAndState:
    def test_dim_array_and_element_assignment(self):
        source = (
            "Function Build() As String\n"
            "    Dim items(2)\n"
            '    items(0) = "a"\n'
            '    items(1) = "b"\n'
            '    items(2) = "c"\n'
            '    Build = Join(items, "")\n'
            "End Function\n"
        )
        assert run_function(source, "Build") == "abc"

    def test_subscript_out_of_range(self):
        source = (
            "Sub Boom()\n"
            "    Dim a(1)\n"
            '    a(5) = "x"\n'
            "End Sub\n"
        )
        with pytest.raises(VBARuntimeError):
            Interpreter.from_source(source).call("Boom")

    def test_module_level_const(self):
        source = (
            'Public Const prefix = "ab"\n'
            "Function WithPrefix(s) As String\n"
            "    WithPrefix = prefix & s\n"
            "End Function\n"
        )
        assert run_function(source, "WithPrefix", "c") == "abc"

    def test_undefined_name_raises(self):
        with pytest.raises(VBARuntimeError):
            run_expr("nosuchname123")

    def test_step_budget(self):
        source = (
            "Sub Forever()\n"
            "    Do While True\n"
            "        DoEvents\n"
            "    Loop\n"
            "End Sub\n"
        )
        interp = Interpreter.from_source(source, max_steps=1000)
        with pytest.raises(VBARuntimeError):
            interp.call("Forever")


class TestTotality:
    """Only VBARuntimeError (or VBAParseError) leaves the interpreter."""

    def test_deep_concat_chain_folds(self):
        terms = " & ".join(['"ab"'] * 5000)
        assert run_expr(terms) == "ab" * 5000

    def test_number_too_long_to_print_is_a_runtime_error(self):
        with pytest.raises(VBARuntimeError):
            run_expr('(10 ^ 5000) & "x"')

    def test_for_variable_set_to_text_is_a_runtime_error(self):
        source = (
            "Function F()\n"
            "    For i = 1 To 3\n"
            '        i = "x"\n'
            "    Next\n"
            "End Function\n"
        )
        with pytest.raises(VBARuntimeError):
            run_function(source, "F")

    def test_self_recursion_is_a_runtime_error(self):
        source = 'Function F()\n    F = F() & "a"\nEnd Function\n'
        with pytest.raises(VBARuntimeError):
            run_function(source, "F")

    @pytest.mark.parametrize("expression", ["0 ^ -1", "CBool()", "Array(1) & 2"])
    def test_python_errors_are_runtime_errors(self, expression):
        with pytest.raises(VBARuntimeError):
            run_expr(expression)


class TestProcedureShadowsBuiltin:
    SOURCE = (
        "Function Hex()\n"
        '    Hex = "shadow"\n'
        "End Function\n"
    )

    @pytest.mark.parametrize("expression", ['Hex() & "!"', 'Hex & "!"'])
    def test_module_procedure_wins_in_both_positions(self, expression):
        assert run_expr(expression, self.SOURCE) == "shadow!"


class TestHostValues:
    def test_hidden_string_lookup(self):
        source = (
            "Function GetIt() As String\n"
            '    GetIt = ActiveDocument.Variables("waGnXV").Value()\n'
            "End Function\n"
        )
        host = {'ActiveDocument.Variables("waGnXV").Value()': "calc.exe"}
        assert run_function(source, "GetIt", host_values=host) == "calc.exe"

    def test_unknown_member_access_raises(self):
        source = (
            "Function GetIt() As String\n"
            "    GetIt = UserForm1.Label1.Caption\n"
            "End Function\n"
        )
        with pytest.raises(VBARuntimeError):
            run_function(source, "GetIt")


class TestParserErrors:
    def test_broken_code_raises_parse_error(self):
        # Fig. 8(b): ``Colu.mns("A:A").Delete`` — `mns(...)` after `.` parses,
        # but the statement form `Selection.RowHeight = 15` is a member
        # assignment (tolerated); truly broken syntax must raise.
        with pytest.raises(VBAParseError):
            parse_module("Sub A()\n    For = ) (\nEnd Sub\n")

    def test_unsupported_statement(self):
        with pytest.raises(VBAParseError):
            parse_module("Sub A()\n    GoTo label1\nEnd Sub\n")

    def test_missing_end_sub(self):
        with pytest.raises(VBAParseError):
            parse_module("Sub A()\n    x = 1\n")


class TestPropertyBased:
    @given(st.integers(min_value=-10_000, max_value=10_000))
    def test_identity_through_arithmetic(self, value):
        assert run_expr(f"({value} * 3 - {value} * 2) * 1") == value

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
    def test_chr_asc_round_trip(self, text):
        source = (
            "Function Rebuild(s) As String\n"
            "    Dim i As Long\n"
            '    Rebuild = ""\n'
            "    For i = 1 To Len(s)\n"
            "        Rebuild = Rebuild & Chr(Asc(Mid(s, i, 1)))\n"
            "    Next\n"
            "End Function\n"
        )
        assert run_function(source, "Rebuild", text) == text

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=20))
    def test_array_sum_matches_python(self, values):
        array_literal = ", ".join(str(v) for v in values)
        source = (
            "Function Total(a) As Long\n"
            "    Dim i As Long\n"
            "    Total = 0\n"
            "    For i = LBound(a) To UBound(a)\n"
            "        Total = Total + a(i)\n"
            "    Next\n"
            "End Function\n"
            "Function Go() As Long\n"
            f"    Go = Total(Array({array_literal}))\n"
            "End Function\n"
        )
        assert run_function(source, "Go") == sum(values)


class TestWithBlocks:
    def test_with_block_body_executes(self):
        source = (
            "Dim hits As Long\n"
            "Sub Go()\n"
            "    With ActiveSheet\n"
            "        .Name = \"x\"\n"
            "        hits = hits + 1\n"
            "    End With\n"
            "End Sub\n"
        )
        interp = Interpreter.from_source(source)
        interp.call("Go")
        assert interp.global_value("hits") == 1

    def test_nested_with(self):
        source = (
            "Function F() As Long\n"
            "    F = 0\n"
            "    With A\n"
            "        With B\n"
            "            F = F + 1\n"
            "        End With\n"
            "        F = F + 1\n"
            "    End With\n"
            "End Function\n"
        )
        assert run_function(source, "F") == 2

    def test_unterminated_with_raises(self):
        from repro.vba.parser import VBAParseError, parse_module

        with pytest.raises(VBAParseError):
            parse_module("Sub A()\n    With X\n        y = 1\nEnd Sub\n")
