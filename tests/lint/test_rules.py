"""Per-rule behavior tests: each rule fires on its target shape and stays
quiet on the idiomatic benign equivalent."""

import pytest

from repro.lint import lint_analysis, lint_source
from repro.lint.registry import all_rules
from repro.lint.rules.o1_random import looks_machine_generated
from repro.vba.analyzer import analyze
from repro.vba.parser import parse_tolerant
from tests.vba.test_frontend_golden import corpus_sources


def hits(source: str, rule_id: str):
    return [f for f in lint_source(source) if f.rule_id == rule_id]


class TestO1Gibberish:
    def test_flags_machine_names(self):
        for name in ("ueiwjfdjkfdsv", "x7k2p9q4w", "bakoteruna"):
            assert looks_machine_generated(name), name

    def test_keeps_human_names(self):
        for name in (
            "i", "cnt", "rowCount", "strTmp", "current", "buffer",
            "output", "total", "ProcessData", "first_name", "header",
        ):
            assert not looks_machine_generated(name), name

    def test_finding_anchors_at_declaration(self):
        source = "Sub A()\n    Dim qxzwvjkqpft As Long\n    qxzwvjkqpft = 1\nEnd Sub\n"
        found = hits(source, "o1-gibberish-identifier")
        assert len(found) == 1
        assert found[0].line == 2

    def test_naming_profile_needs_every_name_caseless(self):
        renamed = (
            "Sub ajkwiruqob()\n    Dim oqwjkdnmer As Long\n"
            "    oqwjkdnmer = 1\nEnd Sub\n"
        )
        assert hits(renamed, "o1-naming-profile")
        mixed = (
            "Sub FormatHeader()\n    Dim oqwjkdnmer As Long\n"
            "    oqwjkdnmer = 1\nEnd Sub\n"
        )
        assert not hits(mixed, "o1-naming-profile")


class TestO2Split:
    def test_short_fragment_chain_fires(self):
        assert hits('s = "pow" & "ers" & "hell"\n', "o2-literal-concat")

    def test_readable_join_is_quiet(self):
        quiet = 'p = base & "\\" & "report.xlsx"\n'
        assert not hits(quiet, "o2-literal-concat")
        sql = 's = "SELECT id, name " & "FROM orders " & "WHERE x = 1"\n'
        assert not hits(sql, "o2-literal-concat")

    def test_fragment_const(self):
        source = 'Public Const kj = "ht"\nPublic Const zq = "tp"\n'
        assert len(hits(source, "o2-fragment-const")) == 2

    def test_dummy_string_const_unused_only(self):
        unused = 'Private Const pad As String = "lorem ipsum junk"\n'
        assert hits(unused, "o2-dummy-string")
        used = (
            'Private Const greeting As String = "hello there"\n'
            "Sub A()\n    MsgBox greeting\nEnd Sub\n"
        )
        assert not hits(used, "o2-dummy-string")

    def test_carved_literal(self):
        assert hits('x = Mid("xpowershellx", 2, 10)\n', "o2-carved-literal")
        assert hits('x = StrReverse("llehsrewop")\n', "o2-carved-literal")
        assert not hits("x = Mid(payload, 2, 10)\n", "o2-carved-literal")


class TestO3Encoding:
    def test_chr_chain(self):
        source = "s = Chr(104) & Chr(116) & Chr(116) & Chr(112)\n"
        found = hits(source, "o3-chr-chain")
        assert found and "4" in found[0].message
        assert not hits("s = Chr(65)\n", "o3-chr-chain")

    def test_numeric_array(self):
        assert hits("a = Array(221, 205, 114, 98, 77)\n", "o3-numeric-array")
        assert not hits('a = Array("x", "y", "z", "w")\n', "o3-numeric-array")
        assert not hits("a = Array(1, 2)\n", "o3-numeric-array")

    def test_decode_loop(self):
        decoder = (
            "For idx = LBound(src) To UBound(src)\n"
            "    acc = acc & Chr(src(idx) - 105)\n"
            "Next idx\n"
        )
        assert hits(decoder, "o3-decode-loop")
        # Chr over a constant outside a loop is not a decoder.
        assert not hits("acc = Chr(src - 105)\n", "o3-decode-loop")

    def test_hex_literal(self):
        assert hits('h = "68747470733a2f2f"\n', "o3-hex-literal")
        assert not hits('h = "deadbeef-not-hex"\n', "o3-hex-literal")

    def test_base64_literal(self):
        assert hits('b = "cG93ZXJzaGVsbCAtZW5jIEFCQ0Q="\n', "o3-base64-literal")
        # All-caps strings (headers, SQL) must not match.
        assert not hits('b = "SELECTNAMEFROMORDERS"\n', "o3-base64-literal")

    def test_replace_marker(self):
        source = 'c = Replace("savteRKtofilteRK", "teRK", "e")\n'
        assert hits(source, "o3-replace-marker")
        assert not hits('c = Replace(cmd, "teRK", "e")\n', "o3-replace-marker")


    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            ("deadbee", False),  # 7 characters
            ("deadbeef", True),  # 8 characters
            ("deadbeef0", False),  # odd length
            ("deadbeef0a", True),
            ("DEADBEEF", True),  # all upper case
            ("deadbeeg", False),
            ("deadbee=", False),
        ],
    )
    def test_hex_literal_boundaries(self, value, expected):
        assert bool(hits(f'h = "{value}"\n', "o3-hex-literal")) is expected

    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            ("cG93ZXJzaGVsbC1=", False),  # 15 characters before the padding
            ("cG93ZXJzaGVsbC1l", True),  # 16
            ("cG93ZXJzaGVsbC1lZ", False),  # length not a multiple of 4
            ("cG93ZXJzaGVsbC1lZg==", True),  # two '='
            ("cG93ZXJzaGVsbC1lZ===", False),  # three '='
            ("CG93ZXJZAGVSBC1L", False),  # all upper case
            ("cg93zxjzagvsbc1l", False),  # all lower case
            ("cG93ZXJzaGVsbC-l", False),  # '-' is outside the alphabet
        ],
    )
    def test_base64_literal_boundaries(self, value, expected):
        assert bool(hits(f'b = "{value}"\n', "o3-base64-literal")) is expected

class TestO4Logic:
    def test_dead_private_procedure(self):
        source = (
            "Private Sub qjunk()\n    x = 1\nEnd Sub\n"
            "Sub Main()\n    y = 2\nEnd Sub\n"
        )
        found = hits(source, "o4-dead-procedure")
        assert [f.line for f in found] == [1]

    def test_called_and_public_procedures_kept(self):
        called = (
            "Private Sub Helper()\n    x = 1\nEnd Sub\n"
            "Sub Main()\n    Helper\nEnd Sub\n"
        )
        assert not hits(called, "o4-dead-procedure")
        assert not hits("Sub Main()\n    y = 2\nEnd Sub\n", "o4-dead-procedure")

    def test_unused_variable(self):
        source = "Sub A()\n    Dim pad As Long\n    Dim n As Long\n    n = 1\nEnd Sub\n"
        found = hits(source, "o4-unused-variable")
        assert [f.message for f in found] == [
            "variable 'pad' is declared but never used"
        ]

    def test_loop_counter_counts_as_used(self):
        source = (
            "Sub A()\n    Dim i As Long\n    For i = 1 To 3\n"
            "        Cells(i, 1) = i\n    Next i\nEnd Sub\n"
        )
        assert not hits(source, "o4-unused-variable")

    def test_unreachable_after_exit(self):
        source = (
            "Sub A()\n    x = 1\n    Exit Sub\n    y = 2\nEnd Sub\n"
        )
        found = hits(source, "o4-unreachable-code")
        assert [f.line for f in found] == [4]

    def test_conditional_exit_not_flagged(self):
        source = (
            "Sub A()\n    If done Then\n        Exit Sub\n    End If\n"
            "    y = 2\nEnd Sub\n"
        )
        assert not hits(source, "o4-unreachable-code")

    def test_noop_arithmetic(self):
        assert hits("Sub A()\n    x = y + 0\nEnd Sub\n", "o4-noop-arithmetic")
        assert hits("Sub A()\n    x = y * 1\nEnd Sub\n", "o4-noop-arithmetic")
        assert hits("Sub A()\n    x = x\nEnd Sub\n", "o4-noop-arithmetic")
        assert not hits("Sub A()\n    x = y + 10\nEnd Sub\n", "o4-noop-arithmetic")


class TestAntiAnalysisRules:
    def test_broken_code_is_silent_on_nesting_too_deep_to_parse(self):
        depth = 3000
        source = (
            "Sub A()\n"
            '    s = "pow" & "ers" & "hell"\n'
            "    Exit Sub\n"
            "    x = " + "(" * depth + "1" + ")" * depth + "\n"
            "End Sub\n"
        )
        found = {finding.rule_id for finding in lint_source(source)}
        assert "aa-broken-code" not in found
        assert {"o2-literal-concat", "o4-unreachable-code"} <= found


    @pytest.mark.parametrize("literal", ["&H", "&O", "&H&"])
    def test_every_rule_survives_a_bare_radix_literal(self, literal):
        source = (
            f'Sub A()\n    x = {literal}\n    s = "pow" & "ers" & "hell"\n'
            "    Exit Sub\n    y = 1\nEnd Sub\n"
        )
        for rule in all_rules():
            lint_source(source, [rule])
        found = {finding.rule_id for finding in lint_source(source)}
        assert {"o2-literal-concat", "o4-unreachable-code"} <= found
    def test_timer_in_string_or_comment_is_quiet(self):
        quiet = (
            'Sub A()\n    If x Then msg = "check Timer and GetTickCount"\n'
            "    If y > 1 Then z = 2 ' Timer note\nEnd Sub\n"
        )
        assert not hits(quiet, "aa-flow-evasion")

    def test_timer_substring_identifier_is_quiet(self):
        source = "Sub A()\n    If MyTimer > 2 Then y = 1\nEnd Sub\n"
        assert not hits(source, "aa-flow-evasion")

    def test_real_probes_fire_only_in_conditions(self):
        guard = "Sub A()\n    If Timer - start > 2 Then Exit Sub\nEnd Sub\n"
        assert hits(guard, "aa-flow-evasion")
        plain = 'Sub A()\n    user = Environ("USERNAME")\nEnd Sub\n'
        assert not hits(plain, "aa-flow-evasion")
        env_guard = (
            'Sub A()\n    If Environ("USERNAME") = "admin" Then Exit Sub\n'
            "End Sub\n"
        )
        assert hits(env_guard, "aa-flow-evasion")

    def test_hidden_strings(self):
        source = "Sub A()\n    x = UserForm1.Label1.Caption\nEnd Sub\n"
        found = hits(source, "aa-hidden-strings")
        assert found and all("document-storage read" in f.message for f in found)

    def test_broken_code_behind_exit(self):
        source = (
            "Sub A()\n    x = 1\n    Exit Sub\n    Next nothing\nEnd Sub\n"
        )
        found = hits(source, "aa-broken-code")
        assert found and "shadowed by Exit at line 3" in found[0].message

    def test_broken_code_parses_the_analyzer_tokens(self, monkeypatch):
        source = (
            "Sub A()\n    x = 1\n    Exit Sub\n    Next nothing\nEnd Sub\n"
        )
        analysis = analyze(source)

        def no_relex(_source):
            raise AssertionError("the module was tokenized a second time")

        monkeypatch.setattr("repro.vba.parser.lex", no_relex)
        monkeypatch.setattr("repro.vba.analyzer.lex", no_relex)
        found = lint_analysis(analysis, ["aa-broken-code"])
        assert found and "shadowed by Exit at line 3" in found[0].message

    def test_broken_code_findings_match_a_fresh_parse(self, monkeypatch):
        sources = [s for s in corpus_sources() if "Exit " in s]
        shared = [lint_analysis(analyze(s), ["aa-broken-code"]) for s in sources]
        monkeypatch.setattr(
            "repro.vba.analyzer.parse_tolerant",
            lambda source, tokens=None: parse_tolerant(source),
        )
        relexed = [lint_analysis(analyze(s), ["aa-broken-code"]) for s in sources]
        assert shared == relexed
        assert any(shared)
