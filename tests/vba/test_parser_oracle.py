"""Differential tests: the binding-power expression loop against the ladder.

:mod:`tests.vba.parser_oracle` keeps the parser whose ten binary
precedence levels were each a method.  Both must build the same tolerant
AST (compared by ``repr``) and raise the same strict-parse error, message
and line, on the generated corpus, a third of the detector's training set
and fuzzed operator fragments built around every place the two designs
could part:
precedence and associativity, ``Not`` against comparisons, unary minus
against ``^``, unbalanced parentheses and ``:`` joins.  Inputs the ladder
cannot parse for recursion depth are skipped: the loop uses a third of
the stack per nesting level, and a test pins that it parses at least as
deep as the ladder did.
"""

from __future__ import annotations

import random

from repro.vba.analyzer import analyze
from repro.vba.parser import VBAParseError, parse_module, parse_tolerant
from tests.lint.test_rules_oracle import training_sources
from tests.vba import parser_oracle
from tests.vba.test_frontend_golden import corpus_sources

OPERANDS = (
    "a", "b", "1", "2.5", '"s"', "True", "Nothing", "f(x)", "o.m", "o.m(1, 2)",
    "CStr(3)", "&HFF", "#1/2/2016#",
)
BINARY = (
    "Imp", "Eqv", "Or", "Xor", "And", "=", "<>", "<", ">", "<=", ">=", "Like",
    "Is", "&", "+", "-", "Mod", "\\", "*", "/", "^",
)
PREFIX = ("Not", "-", "+")
NOISE = ("(", ")", ",", ":", ":=", "Not", "\n", ".", "If", "Then")


def fragment(rng: random.Random) -> str:
    """A random expression, mostly well formed, sometimes broken."""
    parts = []
    for _ in range(rng.randint(1, 12)):
        if rng.random() < 0.3:
            parts.append(rng.choice(PREFIX))
        operand = rng.choice(OPERANDS)
        if rng.random() < 0.2:
            operand = f"({operand} {rng.choice(BINARY)} {rng.choice(OPERANDS)})"
        parts.append(operand)
        if rng.random() < 0.05:
            parts.append(rng.choice(NOISE))
        parts.append(rng.choice(BINARY))
    parts.append(rng.choice(OPERANDS))
    return " ".join(parts)


def statement(rng: random.Random) -> str:
    shape = rng.choice(
        (
            "x = {}", "If {} Then y = 1", "Do While {}\nLoop", "Call f({}, {})",
            "s = {}: t = {}", "Sub S()\n  z = {}\nEnd Sub", "Debug.Print {}",
        )
    )
    return shape.format(fragment(rng), fragment(rng))


def outcome(parse, source: str, tolerant: bool) -> str:
    try:
        return repr(parse(source, tolerant=tolerant))
    except VBAParseError as error:
        return _failure(error)


def _failure(error: VBAParseError) -> str:
    return f"VBAParseError(line={error.line}, {error})"


def production_outcome(source: str, tolerant: bool) -> str:
    """The production parse's outcome, spelled as :func:`outcome` spells
    the ladder's: a tolerant parse that fails has no module."""
    if not tolerant:
        return outcome(lambda source, tolerant: parse_module(source), source, False)
    parsed = parse_tolerant(source)
    return repr(parsed.module) if parsed.module is not None else _failure(parsed.error)


def assert_same(source: str) -> None:
    for tolerant in (False, True):
        try:
            want = outcome(parser_oracle.parse_module, source, tolerant)
        except RecursionError:
            continue
        assert production_outcome(source, tolerant) == want, (tolerant, source)


def test_corpus_and_training_set():
    for source in (*corpus_sources(), *training_sources()[::3]):
        assert_same(source)


def test_operator_fragments():
    rng = random.Random(1417)
    for _ in range(4000):
        assert_same(statement(rng))


def test_precedence_cases():
    for source in (
        "x = Not a = b And c",
        "x = a = Not b",
        "x = Not Not a Or b",
        "x = -a ^ -b ^ c",
        "x = a - b - c + d Mod e \\ f * g / h",
        "x = a Imp b Eqv c Or d Xor e And f",
        "x = a & b = c & d Like e Is f",
        "x = (a Or b) And (Not c)",
        "x = a And Not b Or Not c = d",
        "x = ((a)",
        "x = a)",
        "x = a +",
        "x = Not",
        "x = a: y = Not b: z = c",
    ):
        assert_same(source)


def _parses(parse, depth: int) -> bool:
    try:
        parse("x = " + "(" * depth + "1" + ")" * depth)
    except RecursionError:
        return False
    return True


def test_nesting_depth_at_least_the_ladders():
    depth = 1
    while _parses(parser_oracle.parse_module, depth * 2):
        depth *= 2
    low, high = depth, depth * 2  # the ladder parses low, fails at high
    while high - low > 1:
        middle = (low + high) // 2
        if _parses(parser_oracle.parse_module, middle):
            low = middle
        else:
            high = middle
    assert _parses(parse_module, low)
    assert _parses(parse_module, 2 * low)


def strict_error(source: str) -> str | None:
    try:
        parse_module(source)
    except VBAParseError as error:
        return f"line {error.line}: {error}"
    except RecursionError:
        return None
    return None


def assert_cached_error_is_strict(source: str) -> None:
    cached = analyze(source).ensure_parse().error
    got = None if cached is None else f"line {cached.line}: {cached}"
    assert got == strict_error(source), source


def test_cached_first_error_is_the_strict_error():
    for source in (*corpus_sources(), *training_sources()):
        assert_cached_error_is_strict(source)
    rng = random.Random(1417)
    for _ in range(4000):
        assert_cached_error_is_strict(statement(rng))


def test_cached_parse_is_the_tolerant_parse():
    for source in corpus_sources():
        parsed = analyze(source).ensure_parse()
        assert repr(parsed.module) == repr(parse_tolerant(source).module)
