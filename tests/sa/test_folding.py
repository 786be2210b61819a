"""Constant-folding coverage for the repro.sa abstract interpreter.

Every decoder family the corpus obfuscator emits (and the classic shapes
from real samples) must fold back to the hidden literal without running
the macro.
"""

import random

import pytest

from repro.obfuscation.base import make_context
from repro.obfuscation.encode import STRATEGIES, StringEncoder
from repro.sa import DEFAULT_SA_BUDGET, recover_strings

SECRET = "http://malware-site.example/stage2/payload.exe"

#: Functions whose result depends on whether one path wrote an array
#: element or a module variable: ``F(False)`` is "alpha-tail", ``F(True)``
#: (or ``F(n)`` with ``n >= 1``) is "omega-tail".
ONE_PATH_WRITES = {
    "array-branch": (
        "Function F(flag)\n"
        "    Dim a(1)\n"
        '    a(0) = "alpha"\n'
        "    If flag Then\n"
        '        a(0) = "omega"\n'
        "    End If\n"
        '    F = a(0) & "-tail"\n'
        "End Function\n"
    ),
    "global-branch": (
        "Dim g\n"
        "Function F(flag)\n"
        '    g = "alpha"\n'
        "    If flag Then\n"
        '        g = "omega"\n'
        "    End If\n"
        '    F = g & "-tail"\n'
        "End Function\n"
    ),
    "array-loop": (
        "Function F(n)\n"
        "    Dim a(1)\n"
        '    a(0) = "alpha"\n'
        "    For i = 1 To n\n"
        '        a(0) = "omega"\n'
        "    Next i\n"
        '    F = a(0) & "-tail"\n'
        "End Function\n"
    ),
    "global-loop": (
        "Dim g\n"
        "Function F(n)\n"
        '    g = "alpha"\n'
        "    For i = 1 To n\n"
        '        g = "omega"\n'
        "    Next i\n"
        '    F = g & "-tail"\n'
        "End Function\n"
    ),
}


def recovered_values(source: str, budget=None) -> list[str]:
    recovery = recover_strings(source, budget or DEFAULT_SA_BUDGET)
    assert not recovery.parse_failed
    return recovery.values()


class TestBuiltinFolding:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            ('Chr(72) & Chr(105) & Chr(100) & Chr(101) & Chr(33)', "Hide!"),
            ('StrReverse("terces")', "secret"),
            ('Replace("paXYZyload", "XYZ", "")', "payload"),
            ('Mid("xxpayloadxx", 3, 7)', "payload"),
            ('Left("payload.exe", 7)', "payload"),
            ('Right("run payload", 7)', "payload"),
            ('UCase("shell32")', "SHELL32"),
            ('LCase("SHELL32")', "shell32"),
            ('"pay" + "load" + ".bin"', "payload.bin"),
            ('Chr(65 + 1) & Chr(130 / 2) & Chr(67) & Chr(68)', "BACD"),
            ('Chr(Asc("A") + 32) & "bcdef"', "abcdef"),
            ('String(6, "x")', "xxxxxx"),
            ('Trim("  padded  ")', "padded"),
        ],
    )
    def test_expression_folds(self, expression, expected):
        source = f"Sub Run()\n    value = {expression}\nEnd Sub"
        assert expected in recovered_values(source)

    def test_integer_arithmetic_feeds_chr(self):
        source = (
            "Sub Run()\n"
            "    key = 10\n"
            "    value = Chr(98 + key * 2 - 4) & Chr(111 \\ 1) & Chr(111 Mod 256) & Chr(109)\n"
            "End Sub"
        )
        assert "room" in recovered_values(source)

    def test_const_fragments_reassemble(self):
        source = (
            'Const a = "http://"\n'
            'Const b = "evil.test", c = "/x.exe"\n'
            "Sub Run()\n"
            "    u = a & b & c\n"
            "End Sub"
        )
        assert "http://evil.test/x.exe" in recovered_values(source)

    def test_only_maximal_strings_reported(self):
        source = (
            "Sub Run()\n"
            '    u = "http"\n'
            '    u = u & "://ex"\n'
            '    u = u & "ample.test"\n'
            "End Sub"
        )
        values = recovered_values(source)
        assert values == ["http://example.test"]


class TestControlFlowFolding:
    def test_concrete_for_loop_decode(self):
        source = (
            "Function Decode(src As Variant) As String\n"
            "    Dim acc As String\n"
            '    acc = ""\n'
            "    For idx = LBound(src) To UBound(src)\n"
            "        acc = acc & Chr(src(idx) - 5)\n"
            "    Next idx\n"
            "    Decode = acc\n"
            "End Function\n"
            "Sub Run()\n"
            "    value = Decode(Array(119, 106, 111, 106, 104, 121))\n"
            "End Sub"
        )
        assert "reject" in recovered_values(source)

    def test_do_while_decode(self):
        source = (
            "Sub Run()\n"
            '    src = "746f70"\n'
            "    idx = 1\n"
            '    acc = ""\n'
            "    Do While idx < Len(src)\n"
            '        acc = acc & Chr(Val("&H" & Mid(src, idx, 2)))\n'
            "        idx = idx + 2\n"
            "    Loop\n"
            "    acc = acc & \"-secret\"\n"
            "End Sub"
        )
        assert "top-secret" in recovered_values(source)

    def test_definite_branch_folds(self):
        source = (
            "Sub Run()\n"
            "    If 2 > 1 Then\n"
            '        value = "taken" & "-branch"\n'
            "    Else\n"
            '        value = "dead" & "-branch"\n'
            "    End If\n"
            "End Sub"
        )
        values = recovered_values(source)
        assert "taken-branch" in values
        assert "dead-branch" not in values

    def test_unknown_branch_records_both(self):
        source = (
            "Sub Run(flag)\n"
            "    If flag Then\n"
            '        value = "left" & "-payload"\n'
            "    Else\n"
            '        value = "right" & "-payload"\n'
            "    End If\n"
            "End Sub"
        )
        values = recovered_values(source)
        assert "left-payload" in values
        assert "right-payload" in values

    @pytest.mark.parametrize("case", sorted(ONE_PATH_WRITES))
    def test_one_path_write_does_not_leak_into_the_join(self, case):
        # Each path starts from the same arrays and module variables; a
        # write on one path must not survive as the joined value.
        values = recovered_values(ONE_PATH_WRITES[case])
        assert "omega-tail" not in values
        assert "alpha-tail" not in values

    def test_branch_writes_into_a_callers_array_are_joined(self):
        # The join lands in the caller's array object, which stays shared:
        # the write after the branch reaches the caller too.
        source = (
            "Sub Mark(arr, flag)\n"
            "    If flag Then\n"
            '        arr(0) = "omega"\n'
            "    End If\n"
            '    arr(1) = "beta"\n'
            "End Sub\n"
            "Function F(flag)\n"
            "    Dim a(1)\n"
            '    a(0) = "alpha"\n'
            "    Mark a, flag\n"
            '    after = a(1) & "-after"\n'
            '    F = a(0) & "-tail"\n'
            "End Function\n"
        )
        values = recovered_values(source)
        assert "omega-tail" not in values
        assert "alpha-tail" not in values
        assert "beta-after" in values

    def test_unknown_values_stay_silent(self):
        source = (
            "Sub Run()\n"
            "    value = CreateObject(unknownThing).Run & \"tail\"\n"
            "End Sub"
        )
        recovery = recover_strings(source)
        assert not recovery.parse_failed
        assert "tail" not in "".join(recovery.values())


class TestHostExpressionFolding:
    """Host member chains stay ⊤, but their base and arguments fold."""

    @pytest.mark.parametrize(
        "statement, expected",
        [
            ('CreateObject("WScr" & "ipt.Shell").Run "calc", 0', "WScript.Shell"),
            ('x = ActiveDocument.Variables("pay" & "load").Value', "payload"),
        ],
    )
    def test_member_base_folds(self, statement, expected):
        source = f"Sub Run()\n    {statement}\nEnd Sub"
        assert expected in recovered_values(source)


class TestObfuscatorStrategies:
    """Each StringEncoder strategy must fold back to the plain literal."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategy_recovers_literal(self, strategy):
        plain = (
            "Sub Payload()\n"
            f'    url = "{SECRET}"\n'
            "End Sub"
        )
        encoder = StringEncoder(
            min_length=4, strategies=(strategy,), encode_probability=1.0
        )
        obfuscated = encoder.apply(plain, make_context(20240 + STRATEGIES.index(strategy)))
        assert SECRET not in obfuscated  # the transform actually hid it
        assert SECRET in recovered_values(obfuscated)

    def test_stacked_strategies_recover_all_literals(self):
        plain = (
            "Sub Payload()\n"
            f'    url = "{SECRET}"\n'
            '    app = "WScript.Shell"\n'
            '    cmd = "cmd /c start stage"\n'
            "End Sub"
        )
        rng = random.Random(99)
        encoder = StringEncoder(min_length=4, encode_probability=1.0)
        obfuscated = encoder.apply(plain, make_context(rng.randint(0, 10_000)))
        values = recovered_values(obfuscated)
        joined = "\n".join(values)
        for literal in (SECRET, "WScript.Shell", "cmd /c start stage"):
            assert literal in joined


class TestTotality:
    def test_parse_failure_is_flagged_not_raised(self):
        recovery = recover_strings("\x00\x01 not vba ((((")
        assert recovery.parse_failed or not recovery.values()

    def test_empty_source(self):
        recovery = recover_strings("")
        assert recovery.values() == []
        assert not recovery.exhausted
