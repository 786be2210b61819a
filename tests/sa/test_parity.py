"""Static/dynamic parity: the acceptance contract for repro.sa.

For every O2/O3 sample in the synthetic corpus, the static analyzer must
recover a superset (or equal set) of the strings the *dynamic* VBA
interpreter observes while actually executing the macro.  Both sides
record string results of binop folds and call returns, filter to the
same minimum length, and keep only maximal strings (no value that is a
substring of another), so the comparison is apples to apples.
"""

import pytest

from repro.obfuscation.base import make_context
from repro.obfuscation.encode import STRATEGIES, StringEncoder
from repro.obfuscation.split import DummyStringInserter, StringSplitter
from repro.sa import DEFAULT_SA_BUDGET, recover_strings
from repro.vba import ast_nodes as ast
from repro.vba.interpreter import Interpreter
from repro.vba.parser import parse_module

MIN_LENGTH = DEFAULT_SA_BUDGET.min_string_length

BASE_MACROS = (
    (
        "Sub Payload()\n"
        '    url = "http://files.drop-zone.example/stage2/invoice.exe"\n'
        '    host = "WScript.Shell"\n'
        '    cmd = "cmd /c start /min update_check"\n'
        "End Sub"
    ),
    (
        "Sub Beacon()\n"
        '    a = "MSXML2.XMLHTTP"\n'
        '    b = "ADODB.Stream"\n'
        '    target = "C:\\Users\\Public\\loader.dll"\n'
        "End Sub"
    ),
)


class _RecordingInterpreter(Interpreter):
    """Dynamic interpreter that logs every string it computes."""

    def __post_init__(self) -> None:
        self.observed: list[str] = []
        super().__post_init__()

    def _observe(self, value: object) -> None:
        if isinstance(value, str) and len(value) >= MIN_LENGTH:
            self.observed.append(value)

    def _eval_binop(self, expression, env):
        value = super()._eval_binop(expression, env)
        self._observe(value)
        return value

    def _eval_call(self, expression, env):
        value = super()._eval_call(expression, env)
        self._observe(value)
        return value


def dynamic_observed(source: str) -> set[str]:
    """Strings the dynamic interpreter computes, maximal-filtered."""
    module = parse_module(source)
    interpreter = _RecordingInterpreter(module)
    for procedure in module.procedures.values():
        if not procedure.params:
            interpreter.call(procedure.name)
    kept: list[str] = []
    for value in sorted(set(interpreter.observed), key=len, reverse=True):
        if not any(value in longer for longer in kept):
            kept.append(value)
    return set(kept)


def static_recovered(source: str) -> set[str]:
    recovery = recover_strings(source)
    assert not recovery.parse_failed
    return set(recovery.values())


def assert_superset(source: str) -> None:
    dynamic = dynamic_observed(source)
    static = static_recovered(source)
    missing = {
        value
        for value in dynamic
        if value not in static
        and not any(value in recovered for recovered in static)
    }
    assert not missing, (
        f"static analysis missed dynamically observed strings: {missing!r}"
    )


#: Values VBA coerces where a number is expected: an array bound, an
#: index, and For bounds given as text.
COERCION_MACROS = (
    (
        "Function Bound()\n"
        '    Dim a("2")\n'
        '    a(2) = "hello " & "world"\n'
        '    Bound = a(2) & "!"\n'
        "End Function"
    ),
    (
        "Function Index()\n"
        "    Dim a(3)\n"
        '    a("1") = "hello " & "world"\n'
        '    Index = a("1") & "!"\n'
        "End Function"
    ),
    (
        "Function Count()\n"
        '    s = "a"\n'
        '    For i = "1" To "3"\n'
        "        s = s & Chr(97 + i)\n"
        "    Next i\n"
        '    Count = s & "efg"\n'
        "End Function"
    ),
)


class TestParity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("base_index", range(len(BASE_MACROS)))
    @pytest.mark.parametrize("seed", (11, 1203, 40_77))
    def test_o3_encoder_parity(self, strategy, base_index, seed):
        encoder = StringEncoder(
            min_length=4, strategies=(strategy,), encode_probability=1.0
        )
        source = encoder.apply(BASE_MACROS[base_index], make_context(seed))
        assert_superset(source)

    @pytest.mark.parametrize("base_index", range(len(BASE_MACROS)))
    @pytest.mark.parametrize("seed", (5, 86, 919))
    def test_o2_splitter_parity(self, base_index, seed):
        context = make_context(seed)
        source = StringSplitter(min_length=4).apply(
            BASE_MACROS[base_index], context
        )
        source = DummyStringInserter().apply(source, context)
        assert_superset(source)

    @pytest.mark.parametrize("seed", (3, 1337))
    def test_stacked_o2_o3_parity(self, seed):
        context = make_context(seed)
        source = BASE_MACROS[0]
        source = StringSplitter(min_length=4).apply(source, context)
        source = StringEncoder(min_length=4, encode_probability=0.8).apply(
            source, context
        )
        assert_superset(source)

    @pytest.mark.parametrize(
        "source", COERCION_MACROS, ids=["dim-bound", "index", "for-bounds"]
    )
    def test_coerced_numbers_parity(self, source):
        assert_superset(source)

    def test_plain_macros_parity(self):
        for source in BASE_MACROS:
            assert_superset(source)


def test_parity_harness_actually_observes_strings():
    """Guard against a vacuous pass: the dynamic side must see decodes."""
    encoder = StringEncoder(
        min_length=4, strategies=("chr_concat",), encode_probability=1.0
    )
    source = encoder.apply(BASE_MACROS[0], make_context(1))
    observed = dynamic_observed(source)
    assert any("http://" in value for value in observed)


def test_module_fixture_has_procedures():
    module = parse_module(BASE_MACROS[0])
    assert isinstance(module, ast.Module)
    assert module.procedures
