"""Differential tests: the concrete face of the one walker against the old walk.

:mod:`tests.vba.interpreter_oracle` keeps the interpreter that walked the
AST on its own.  :class:`repro.vba.interpreter.Interpreter` is now the SA
walker with a raising ``_widen`` and an unbounded budget, and must agree
with it — the same raise-or-return outcome, equal return values and equal
module variables — on every zero-argument procedure of the front-end
golden corpus and of the detector's training set, on every encoder
strategy's decoder expressions, on the outputs of the O1–O4 and
anti-analysis transforms the obfuscation tests run, and on a seeded fuzz
of program fragments.  Where the two differ on purpose, ``DIVERGENCES``
pins both sides, one case each.
"""

from __future__ import annotations

import random

import pytest

from repro.obfuscation.antianalysis import BrokenCodeInserter, FlowChanger, StringHider
from repro.obfuscation.base import make_context
from repro.obfuscation.encode import STRATEGIES, StringEncoder, _encode_literal, _HelperRegistry
from repro.obfuscation.logic import (
    DummyCodeInserter,
    ProcedureReorderer,
    SizePadder,
    generate_junk_procedure,
)
from repro.obfuscation.pipeline import default_pipeline
from repro.obfuscation.rename import RandomRenamer
from repro.obfuscation.split import DummyStringInserter, StringSplitter
from repro.vba import interpreter as walker
from repro.vba.parser import parse_module, parse_tolerant
from tests.lint.test_rules_oracle import training_sources
from tests.obfuscation.test_antianalysis import DOWNLOADER_SUB, PAYLOAD_MODULE
from tests.obfuscation.test_transforms import GREETING_MODULE, URL_MODULE
from tests.vba import interpreter_oracle as oracle
from tests.vba.test_frontend_golden import corpus_sources

#: The oracle's statement budget.  A run that trips it is left out: the
#: two count steps differently (the walker counts expression nodes too).
ORACLE_STEPS = 100_000

#: Arguments for procedures that take parameters, cycled.
ARGUMENTS = ("World", 7, "a&b", True)


def _outcome(run) -> tuple[str, object]:
    try:
        value = run()
    except Exception as error:  # the oracle leaks raw Python errors
        return "raise", error
    return "return", repr(value)


def _globals(interpreter) -> str:
    return repr(sorted(
        (name, repr(interpreter.global_value(name))) for name in interpreter._globals
    ))


def _run(cls, module, name, args, host_values, max_steps):
    """Construct, call ``name``; the outcome and the module variables."""
    state = {}

    def construct_and_call():
        state["interpreter"] = cls(module, dict(host_values), max_steps)
        return state["interpreter"].call(name, *args) if name else None

    outcome = _outcome(construct_and_call)
    interpreter = state.get("interpreter")
    return outcome, None if interpreter is None else _globals(interpreter)


def _over_budget(outcome) -> bool:
    kind, value = outcome
    return kind == "raise" and "step budget exceeded" in str(value)


def compare(module, name="", args=(), host_values=None) -> bool:
    """Run both on one call; assert they agree.  False when the oracle ran
    out of steps and nothing was compared."""
    host_values = host_values or {}
    expected, expected_globals = _run(
        oracle.Interpreter, module, name, args, host_values, ORACLE_STEPS
    )
    if _over_budget(expected):
        return False
    got, got_globals = _run(
        walker.Interpreter, module, name, args, host_values, 50 * ORACLE_STEPS
    )
    if got[0] == "raise":
        assert isinstance(got[1], walker.VBARuntimeError), got[1]
    assert got[0] == expected[0], (name, expected, got)
    if got[0] == "return":
        assert got[1] == expected[1], (name, expected, got)
    assert got_globals == expected_globals, name
    return True


def compare_source(source, host_values=None, zero_argument_only=True) -> tuple[int, int]:
    """Compare module construction and every procedure call of ``source``;
    returns (compared, skipped)."""
    module = parse_tolerant(source).module
    if module is None:
        return 0, 0
    calls = [("", ())]
    for procedure in module.procedures.values():
        if procedure.params and zero_argument_only:
            continue
        args = tuple(ARGUMENTS[i % len(ARGUMENTS)] for i in range(len(procedure.params)))
        calls.append((procedure.name, args))
    compared = sum(compare(module, name, args, host_values) for name, args in calls)
    return compared, len(calls) - compared


# ----------------------------------------------------------------------
# Corpora


@pytest.mark.parametrize(
    "sources", [corpus_sources, training_sources], ids=["golden", "training"]
)
def test_corpus_procedures_agree(sources):
    compared = skipped = 0
    for source in sources():
        done, left_out = compare_source(source)
        compared += done
        skipped += left_out
    assert compared > 200
    assert skipped <= compared // 20


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_encoder_expressions_agree(strategy, seed):
    context = make_context(seed)
    helpers = _HelperRegistry(context)
    for value in ("http://example.com/payload.exe", "WScript.Shell", "é\x01\"'&"):
        expression = _encode_literal(value, strategy, context, helpers)
        got = _outcome(
            lambda: walker.evaluate_expression(expression, module_source=helpers.render())
        )
        expected = _outcome(
            lambda: oracle.evaluate_expression(expression, module_source=helpers.render())
        )
        assert got == expected == ("return", repr(value))


def _transform_outputs():
    def run(transform, source, seed=7):
        return transform.apply(source, make_context(seed))

    outputs = [
        run(RandomRenamer(), GREETING_MODULE),
        run(StringSplitter(), GREETING_MODULE),
        run(StringSplitter(hoist_const_probability=1.0), URL_MODULE),
        run(DummyStringInserter(), GREETING_MODULE),
        run(DummyCodeInserter(blocks_min=2, blocks_max=2), GREETING_MODULE),
        run(SizePadder(target_length=5000), GREETING_MODULE),
        run(ProcedureReorderer(), GREETING_MODULE + URL_MODULE + PAYLOAD_MODULE),
        run(FlowChanger(), DOWNLOADER_SUB, 5),
        run(BrokenCodeInserter(), DOWNLOADER_SUB, 5),
        default_pipeline().run(PAYLOAD_MODULE, seed=42).source,
    ]
    outputs += [run(StringEncoder(strategies=(s,)), URL_MODULE) for s in STRATEGIES]
    outputs += [run(StringEncoder(), URL_MODULE, seed) for seed in range(5)]
    outputs += [generate_junk_procedure(make_context(seed)) for seed in range(20)]
    return [(source, {}) for source in outputs]


def test_transform_outputs_agree():
    compared = 0
    for source, host in _transform_outputs():
        compared += compare_source(source, host, zero_argument_only=False)[0]
    context = make_context(11)
    hidden = StringHider(hide_probability=1.0, min_length=4).apply(PAYLOAD_MODULE, context)
    compared += compare_source(hidden, dict(context.document_variables))[0]
    compared += compare_source(hidden)[0]  # no host values: the read raises
    assert compared > 60


# ----------------------------------------------------------------------
# Fragment fuzz

#: Names the fuzz assigns; the loop variables ``i``, ``j``, ``e`` and the
#: Do counter ``k`` are never assigned in a body.
_SCALARS = ("a", "b", "c", "g")

_LITERALS = (
    "0", "1", "2", "3", "7", "65", "300", "-4", "1.5", "2.5", "0.5",
    '"ab"', '"12"', '"1.5"', '"x"', '""', '"True"', '" 3 "', '"&H41"',
    "True", "False",
)

_EXTENTS = ("0", "3", '"2"', "1.5")

_UNARY_BUILTINS = (
    "Chr", "Asc", "Len", "LCase", "UCase", "Trim", "StrReverse", "CStr", "CLng",
    "CInt", "CDbl", "CBool", "Val", "Hex", "Oct", "Abs", "Int", "Fix", "Sgn",
    "IsNumeric", "Sqr", "Round", "Space",
)

_BINARY = ("&", "+", "-", "*", "/", "\\", "Mod", "=", "<>", "<", ">", "<=", ">=",
           "And", "Or", "Xor")


class _Fuzz:
    """Random programs from fragments, avoiding the pinned divergences."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def expression(self, depth: int = 0) -> str:
        rng = self.rng
        if depth >= 3 or rng.random() < 0.45:
            return rng.choice(_LITERALS + _SCALARS)
        roll = rng.random()
        sub = lambda: self.expression(depth + 1)  # noqa: E731
        if roll < 0.35:
            return f"({sub()} {rng.choice(_BINARY)} {sub()})"
        if roll < 0.45:
            return f"({sub()} ^ {rng.choice(('0', '1', '2', '3', '-1'))})"
        if roll < 0.55:
            return f"({rng.choice(('-', 'Not '))}{sub()})"
        if roll < 0.75:
            return f"{rng.choice(_UNARY_BUILTINS)}({sub()})"
        if roll < 0.85:
            name = rng.choice(("Mid", "Left", "Right", "InStr", "Replace", "String",
                               "StrComp", "StrConv", "Round"))
            count = {"Replace": 3, "Mid": rng.choice((2, 3))}.get(name, 2)
            return f"{name}({', '.join(sub() for _ in range(count))})"
        if roll < 0.9:
            return f"arr({sub()})"
        # Module procedures, one of them shadowing a builtin (called with
        # parentheses: a bare builtin name is a pinned divergence).
        return f"{rng.choice(('Helper', 'Hex', 'Join2'))}({sub()})"

    def block(self, depth: int = 0, in_for: bool = False) -> list[str]:
        return [
            line
            for _ in range(self.rng.randint(1, 3))
            for line in self.statement(depth, in_for)
        ]

    def statement(self, depth: int, in_for: bool) -> list[str]:
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.45:
            return [f"{rng.choice(_SCALARS)} = {self.expression()}"]
        if roll < 0.55:
            return [f"arr({self.expression(2)}) = {self.expression()}"]
        if roll < 0.7:
            lines = [f"If {self.expression(1)} Then", *self.block(depth + 1, in_for)]
            if rng.random() < 0.5:
                lines += ["Else", *self.block(depth + 1, in_for)]
            return lines + ["End If"]
        if roll < 0.8:
            step = rng.choice(("", " Step 2", " Step -1", ' Step "1"', " Step 0.5"))
            var = "ij"[depth]
            return [
                f"For {var} = {rng.choice(('0', '1', '2', '3.5'))} To "
                f"{rng.choice(('3', '4', '-1', '2.5'))}{step}",
                *self.block(depth + 1, True),
                *(["If a = b Then Exit For"] if rng.random() < 0.3 else []),
                f"Next {var}",
            ]
        if roll < 0.9:
            return [
                f'For Each e In Array({self.expression(2)}, "z", 3)',
                "    c = c & e",
                *self.block(depth + 1, True),
                "Next",
            ]
        return [
            "k = 0",
            f"Do {rng.choice(('While', 'Until'))} "
            f"{rng.choice(('k < 3', 'k >= 3'))}",
            "k = k + 1",
            *self.block(depth + 1, in_for),
            "Loop",
        ]

    def program(self) -> str:
        body = "\n".join(f"    {line}" for line in self.block())
        return (
            "Dim g\n"
            f"Const base = {self.rng.choice(_LITERALS)}\n"
            "Function Helper(x)\n"
            '    Helper = x & "-" & base\n'
            "End Function\n"
            "Function Hex(x)\n"
            '    Hex = "hex:" & x\n'
            "End Function\n"
            "Function Join2(x)\n"
            '    Join2 = Join(Array(x, g), "+")\n'
            "End Function\n"
            "Function F()\n"
            f"    Dim arr({self.rng.choice(_EXTENTS)})\n"
            '    a = 1: b = "ab": c = ""\n'
            f"{body}\n"
            '    F = a & "|" & b & "|" & c\n'
            "End Function\n"
        )


@pytest.mark.parametrize("seed", range(8))
def test_fragment_fuzz_agrees(seed):
    fuzz = _Fuzz(seed)
    outcomes = set()
    for _ in range(60):
        module = parse_module(fuzz.program())
        assert compare(module, "F")
        outcomes.add(_outcome(lambda: walker.Interpreter(module).call("F"))[0])
    assert outcomes == {"raise", "return"}


# ----------------------------------------------------------------------
# Divergences, pinned on both sides

_DEEP_CHAIN = " & ".join(['"ab"'] * 5000)


def _function(body: str, extra: str = "") -> str:
    return f"{extra}Function F()\n{body}\nEnd Function\n"


#: name -> (source, steps, the oracle's outcome, the walker's outcome).
#: An outcome is ("return", value) or ("raise", exception class).
DIVERGENCES = {
    # The walker folds a left-deep chain iteratively.
    "deep-concat": (
        _function(f"    F = {_DEEP_CHAIN}"), ORACLE_STEPS,
        ("raise", RecursionError), ("return", "ab" * 5000),
    ),
    # Python errors of concrete operations are VBA runtime errors.
    "number-too-long-to-print": (
        _function('    F = (10 ^ 5000) & "x"'), ORACLE_STEPS,
        ("raise", ValueError), ("raise", walker.VBARuntimeError),
    ),
    "zero-to-a-negative-power": (
        _function("    F = 0 ^ -1"), ORACLE_STEPS,
        ("raise", ZeroDivisionError), ("raise", walker.VBARuntimeError),
    ),
    "cbool-without-argument": (
        _function("    F = CBool()"), ORACLE_STEPS,
        ("raise", IndexError), ("raise", walker.VBARuntimeError),
    ),
    "self-recursion": (
        _function('    F = F() & "a"'), ORACLE_STEPS,
        ("raise", RecursionError), ("raise", walker.VBARuntimeError),
    ),
    # The For variable is coerced like every other number.
    "for-variable-set-to-text": (
        _function('    For i = 1 To 3\n        i = "x"\n    Next'), ORACLE_STEPS,
        ("raise", TypeError), ("raise", walker.VBARuntimeError),
    ),
    "for-variable-set-to-numeric-text": (
        _function("    For i = 1 To 3\n        i = CStr(i)\n        F = F & i\n    Next"),
        ORACLE_STEPS, ("raise", TypeError), ("return", "123"),
    ),
    "for-variable-set-to-true": (
        _function(
            "    Dim k\n    For i = 0 To 1\n        k = k + 1\n        If k = 1 Then i = True\n"
            "        F = F & i\n    Next"
        ),
        ORACLE_STEPS, ("return", "True"), ("return", "True01"),
    ),
    # A module procedure shadows a builtin as a bare name too.
    "bare-name-procedure-shadows-builtin": (
        _function('    F = Hex & "!"', 'Function Hex()\n    Hex = "shadow"\nEnd Function\n'),
        ORACLE_STEPS, ("raise", oracle.VBARuntimeError), ("return", "shadow!"),
    ),
    # Inside a Function, F(x) calls F even after F = "…" set its result.
    "recursion-after-the-result-is-set": (
        "Function G(n)\n    G = \"x\"\n    If n > 0 Then G = G & G(n - 1)\nEnd Function\n"
        "Function F()\n    F = G(2)\nEnd Function\n",
        ORACLE_STEPS, ("raise", oracle.VBARuntimeError), ("return", "xxx"),
    ),
    # An array is not a string or a number.
    "array-operand": (
        _function('    F = Array(1, 2) & "x"'), ORACLE_STEPS,
        ("return", "[1, 2]x"), ("raise", walker.VBARuntimeError),
    ),
    # A negative upper bound is out of range, as in VBA.
    "negative-array-bound": (
        _function("    Dim a(-1)\n    F = UBound(a)"), ORACLE_STEPS,
        ("return", -1), ("raise", walker.VBARuntimeError),
    ),
    # max_steps counts expression nodes as well as statements.
    "steps-count-expressions": (
        _function('    F = "a" & "b" & "c" & "d"'), 3,
        ("return", "abcd"), ("raise", walker.VBARuntimeError),
    ),
}


def _pinned(cls, source, steps):
    try:
        return "return", cls.from_source(source, max_steps=steps).call("F")
    except Exception as error:  # the oracle leaks raw Python errors
        return "raise", type(error)


@pytest.mark.parametrize("case", sorted(DIVERGENCES))
def test_pinned_divergence(case):
    source, steps, expected_oracle, expected_walker = DIVERGENCES[case]
    assert _pinned(oracle.Interpreter, source, steps) == expected_oracle
    assert _pinned(walker.Interpreter, source, steps) == expected_walker
