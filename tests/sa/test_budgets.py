"""Adversarial budget suite: the analyzer must be *total*.

Hostile macros are built to hang or blow up naive emulators — billion-
iteration loops, 10k-deep concat chains, self-feeding string growth,
recursion, exponential blowups.  Every one must come back as a
StringRecovery (flagged exhausted where a cap tripped), never an
exception, and bump the ``sa.budget_exhausted`` telemetry.
"""

import time

import pytest

from repro.obs import MetricsRegistry
from repro.resilience import STRICT_SA_BUDGET, SABudget
from repro.sa import StringRecovery, recover_strings

BILLION_LOOP = (
    "Sub Hang()\n"
    "    For i = 1 To 1000000000\n"
    '        s = s & "x"\n'
    "    Next i\n"
    "End Sub"
)

DEEP_CONCAT = (
    "Sub Chain()\n"
    "    v = " + " & ".join(['"ab"'] * 10_000) + "\n"
    "End Sub"
)

SELF_FEEDING = (
    "Sub Grow()\n"
    '    s = "seed"\n'
    "    Do While 1 = 1\n"
    "        s = s & s\n"
    "    Loop\n"
    "End Sub"
)

RECURSION = (
    "Function Down(n)\n"
    "    Down = Down(n + 1)\n"
    "End Function\n"
    "Sub Run()\n"
    "    v = Down(0)\n"
    "End Sub"
)

EXPONENT_BOMB = (
    "Sub Bomb()\n"
    "    v = 2 ^ 1000000000\n"
    "End Sub"
)

SPACE_BOMB = (
    "Sub Bomb()\n"
    "    v = Space(2000000000) & String(2000000000, \"A\")\n"
    "End Sub"
)

STRING_FLOOD = (
    "Sub Flood()\n"
    "    For i = 1 To 100\n"
    '        v = "padpad" & i\n'
    "    Next i\n"
    "End Sub"
)

NESTED_LOOPS = (
    "Sub Nest()\n"
    "    For i = 1 To 100000\n"
    "        For j = 1 To 100000\n"
    "            For k = 1 To 100000\n"
    "                t = t + 1\n"
    "            Next k\n"
    "        Next j\n"
    "    Next i\n"
    "End Sub"
)

def multiply_bomb(trips: int) -> str:
    """``x`` squared ``trips`` times: 2 ** trips decimal digits."""
    return (
        "Sub Square()\n"
        "    x = 10\n"
        f"    For i = 1 To {trips}\n"
        "        x = x * x\n"
        "    Next i\n"
        "End Sub"
    )


ADVERSARIAL = (
    BILLION_LOOP,
    DEEP_CONCAT,
    SELF_FEEDING,
    RECURSION,
    EXPONENT_BOMB,
    SPACE_BOMB,
    STRING_FLOOD,
    NESTED_LOOPS,
)


class TestTermination:
    @pytest.mark.parametrize("source", ADVERSARIAL, ids=lambda s: s.split("\n")[0])
    def test_never_raises_always_total(self, source):
        recovery = recover_strings(source)
        assert isinstance(recovery, StringRecovery)
        assert not recovery.parse_failed

    @pytest.mark.parametrize("source", ADVERSARIAL, ids=lambda s: s.split("\n")[0])
    def test_total_under_strict_budget_too(self, source):
        recovery = recover_strings(source, STRICT_SA_BUDGET)
        assert isinstance(recovery, StringRecovery)

    def test_python_errors_of_concrete_operations_widen(self):
        # 0 ^ -1 and CBool() raised raw Python errors out of the pass.
        source = (
            "Sub Odd()\n"
            "    x = 0 ^ -1\n"
            "    y = CBool()\n"
            '    z = "after" & "wards"\n'
            "End Sub"
        )
        recovery = recover_strings(source)
        assert recovery.values() == ["afterwards"]
        assert not recovery.exhausted

    def test_billion_loop_flags_loop_budget(self):
        recovery = recover_strings(BILLION_LOOP)
        assert recovery.exhausted
        assert recovery.exhausted_reason == "loop_iterations"

    def test_integer_growth_widens_before_computing(self):
        started = time.perf_counter()
        recovery = recover_strings(multiply_bomb(40))
        assert time.perf_counter() - started < 1.0
        assert recovery.exhausted
        assert recovery.exhausted_reason == "number_size"

    def test_deep_concat_still_terminates_and_recovers(self):
        recovery = recover_strings(DEEP_CONCAT)
        # The 10k-wide chain folds (left-spine iteration, no recursion) and
        # the 20k-char result is within the default string cap.
        assert "abab" in "".join(recovery.values())

    def test_self_feeding_growth_is_cut_off(self):
        recovery = recover_strings(SELF_FEEDING)
        assert recovery.exhausted
        total = sum(len(value) for value in recovery.values())
        assert total <= SABudget().max_string_length * 2

    def test_step_budget_aborts_with_partials(self):
        tiny = SABudget(max_steps=25)
        source = (
            "Sub Run()\n"
            + "\n".join(f'    v{i} = "value-{i}00"' for i in range(50))
            + "\nEnd Sub"
        )
        recovery = recover_strings(source, tiny)
        assert recovery.exhausted
        assert recovery.exhausted_reason == "steps"
        assert recovery.steps_used <= 25 + 1

    def test_string_flood_truncates_at_cap(self):
        tiny = SABudget(max_strings=8)
        recovery = recover_strings(STRING_FLOOD, tiny)
        assert recovery.truncated
        assert len(recovery.strings) <= 8



class TestBareRadixLiteral:
    """``&H`` / ``&O`` with no digits lex as numbers but do not parse."""

    @pytest.mark.parametrize("literal", ["&H", "&O", "&H&"])
    def test_recover_strings_folds_the_rest_of_the_macro(self, literal):
        recovery = recover_strings(
            f'Sub A()\n    x = {literal}\n    Shell "po" & "wer" & "shell"\nEnd Sub'
        )
        assert not recovery.parse_failed
        assert [found.value for found in recovery.strings] == ["powershell"]


class TestTelemetry:
    def test_exhaustion_counters(self):
        registry = MetricsRegistry()
        recover_strings(BILLION_LOOP, metrics=registry)
        counters = registry.counters
        assert counters["sa.analyzed"].value == 1
        assert counters["sa.budget_exhausted"].value == 1
        assert counters["sa.budget_exhausted.loop_iterations"].value == 1

    def test_parse_failed_counter(self):
        registry = MetricsRegistry()
        recovery = recover_strings("Sub ((((", metrics=registry)
        if recovery.parse_failed:
            assert counters_value(registry, "sa.parse_failed") == 1

    def test_recovered_counter(self):
        registry = MetricsRegistry()
        recover_strings(
            'Sub A()\n    v = "conc" & "atenated"\nEnd Sub', metrics=registry
        )
        assert counters_value(registry, "sa.strings_recovered") == 1


def counters_value(registry: MetricsRegistry, name: str) -> int:
    counter = registry.counters.get(name)
    return 0 if counter is None else counter.value
