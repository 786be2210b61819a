"""Parser edge cases: continuations, colon statements, Const lists.

Real-world macro sources (and the corpus obfuscator's output) lean on
syntax the happy-path tests skipped: ``_`` line continuations with
trailing whitespace, colon-separated statement sequences, multi-name
``Const`` declarations.  Each case checks the parser's spans: the
source text of every node the parse recorded a span for parses again to
an equal node.  A property sweep over the synthetic corpus keeps the
tolerant mode total, and the span check also runs over the front-end
golden corpus.
"""

import dataclasses
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.benign import generate_benign_module
from repro.corpus.malicious import generate_malicious_macro
from repro.obfuscation.pipeline import default_pipeline
from repro.vba import ast_nodes as ast
from repro.vba.lexer import LAYOUT_KINDS, lex
from repro.vba.parser import parse_module, parse_statements, parse_tolerant, unpack_span
from tests.vba.test_frontend_golden import corpus_sources

_SPANNED = (ast.Name, ast.Call, ast.MemberAccess, ast.UnaryOp, ast.BinOp)
_FIXED = {(ast.CallStmt, "call"), (ast.Assign, "target"), (ast.MemberAccess, "base")}


def _spanned_nodes(module: ast.Module) -> list:
    """The nodes of ``module`` that carry a span: expressions but a
    literal, a member's base and a statement's callee or target (their
    parts do), ``Const`` items and procedures."""
    found = []
    pending = [(module.procedures, False), (module.module_statements, False)]
    while pending:
        node, fixed = pending.pop()
        if isinstance(node, dict):
            pending.extend((value, False) for value in node.values())
        elif isinstance(node, (tuple, list)):
            pending.extend((item, False) for item in node)
        elif dataclasses.is_dataclass(node):
            if not fixed and isinstance(node, (*_SPANNED, ast.ConstStmt, ast.Procedure)):
                found.append(node)
            for field in dataclasses.fields(node):
                part = getattr(node, field.name)
                pending.append((part, (type(node), field.name) in _FIXED))
    return found


def assert_spans_reparse(source: str) -> ast.Module | None:
    """Parse ``source`` tolerantly and check that the text of every
    recorded span, on its own line, parses to an equal node."""
    table = lex(source)
    parsed = parse_tolerant(source, table)
    if parsed.module is None:
        return None
    code = [index for index, kind in enumerate(table.kinds) if kind not in LAYOUT_KINDS]
    offsets = list(accumulate(map(len, table.texts), initial=0))
    for node in _spanned_nodes(parsed.module):
        first, last = unpack_span(parsed.spans[id(node)])
        text = source[offsets[code[first]] : offsets[code[last] + 1]]
        if isinstance(node, ast.Procedure):
            pad = "\n" * (table.lines[code[first]] - 1)
            again = parse_tolerant(pad + text).module.procedures[node.name.lower()]
        elif isinstance(node, ast.ConstStmt):
            (again,) = parse_statements("\n" * (node.line - 1) + "Const " + text)
        else:
            pad = "\n" * (table.lines[code[first]] - 1)
            again = parse_statements(f"{pad}x = {text}")[0].value
        assert again == node, text
    return parsed.module


def roundtrip(source: str) -> ast.Module:
    """A strict parse whose spans re-parse (see :func:`assert_spans_reparse`)."""
    module = assert_spans_reparse(source)
    assert repr(module) == repr(parse_module(source))
    return module


class TestLineContinuations:
    def test_continuation_inside_expression(self):
        module = roundtrip("Sub A()\n    x = 1 + _\n        2\nEnd Sub")
        statement = module.procedures["a"].body[0]
        assert isinstance(statement, ast.Assign)

    def test_continuation_with_trailing_whitespace(self):
        # a trailing blank after the ``_`` is invisible in an editor and
        # common in pasted samples; it must still splice the line
        module = roundtrip("Sub A()\n    x = 1 + _ \n        2\nEnd Sub")
        assert module.procedures["a"].body

    def test_continuation_in_argument_list(self):
        module = roundtrip(
            "Sub A()\n"
            "    v = Mid( _\n"
            '        "payload", _\n'
            "        1, 3)\n"
            "End Sub"
        )
        assert isinstance(module.procedures["a"].body[0], ast.Assign)


class TestColonStatements:
    def test_colon_separated_sequence(self):
        module = roundtrip("Sub A()\n    x = 1: y = 2: z = x + y\nEnd Sub")
        assert len(module.procedures["a"].body) == 3

    def test_single_line_if_with_colon_bodies(self):
        module = parse_module(
            "Sub A()\n"
            "    If a > 1 Then b = 1: c = 2 Else d = 3: e = 4\n"
            "End Sub"
        )
        statement = module.procedures["a"].body[0]
        assert isinstance(statement, ast.IfStmt)
        then_targets = [s.target.name for s in statement.branches[0][1]]
        else_targets = [s.target.name for s in statement.else_body]
        assert then_targets == ["b", "c"]
        assert else_targets == ["d", "e"]

    def test_trailing_and_doubled_colons(self):
        module = roundtrip("Sub A()\n    x = 1:: y = 2:\nEnd Sub")
        assert len(module.procedures["a"].body) == 2


def _parse(source: str, tolerant: bool) -> ast.Module:
    return parse_tolerant(source).module if tolerant else parse_module(source)


class TestLineLabels:
    @pytest.mark.parametrize("tolerant", [False, True])
    def test_label_alone_on_its_line(self, tolerant):
        module = _parse(
            "Sub A()\nAgain:\n    i = i + 1\nEnd Sub", tolerant=tolerant
        )
        label, step = module.procedures["a"].body
        assert label == ast.NoOpStmt("Again:", 2)
        assert isinstance(step, ast.Assign)

    @pytest.mark.parametrize("tolerant", [False, True])
    def test_label_before_a_statement(self, tolerant):
        module = _parse(
            "Sub A()\n    Again: i = i + 1\nEnd Sub", tolerant=tolerant
        )
        label, step = module.procedures["a"].body
        assert label == ast.NoOpStmt("Again:", 2)
        assert isinstance(step, ast.Assign) and step.target.name == "i"

    def test_label_roundtrips(self):
        module = roundtrip("Sub A()\nAgain: i = i + 1\nEnd Sub")
        assert module.procedures["a"].body[0] == ast.NoOpStmt("Again:", 2)

    def test_noop_statements_and_mid_line_names_are_not_labels(self):
        body = parse_module(
            "Sub A()\n    DoEvents: i = 1\n    i = 2: Again: i = 3\nEnd Sub"
        ).procedures["a"].body
        assert body[0] == ast.NoOpStmt("DoEvents", 2)
        assert isinstance(body[2], ast.Assign)
        assert isinstance(body[3], ast.CallStmt)  # not at a line start


class TestConstDeclarations:
    def test_multi_name_const(self):
        module = roundtrip(
            'Const a = 1, b = "two", c = 3.5\nSub A()\nEnd Sub'
        )
        consts = [
            s for s in module.module_statements if isinstance(s, ast.ConstStmt)
        ]
        assert [c.name.lower() for c in consts] == ["a", "b", "c"]

    def test_multi_name_const_inside_procedure(self):
        module = roundtrip(
            "Sub A()\n    Const x = 1, y = 2\n    z = x + y\nEnd Sub"
        )
        consts = [
            s
            for s in module.procedures["a"].body
            if isinstance(s, ast.ConstStmt)
        ]
        assert [c.name.lower() for c in consts] == ["x", "y"]

    def test_const_with_type_annotations(self):
        module = roundtrip(
            'Const a As Long = 7, b As String = "x y"\nSub A()\nEnd Sub'
        )
        consts = [
            s for s in module.module_statements if isinstance(s, ast.ConstStmt)
        ]
        assert len(consts) == 2

    def test_const_in_single_line_if(self):
        module = parse_module(
            "Sub A()\n    If flag Then Const p = 1, q = 2\nEnd Sub"
        )
        statement = module.procedures["a"].body[0]
        assert isinstance(statement, ast.IfStmt)
        assert len(statement.branches[0][1]) == 2


class TestTolerantMode:
    @pytest.mark.parametrize(
        "junk",
        [
            "Sub Broken(((\n  ??? :::\nEnd Sub",
            "If Then Else End\nNext Loop Wend",
            '#If Win64 Then\nDeclare PtrSafe Sub X Lib "k" ()\n#End If',
            "\x00\x01\x02 binary garbage \xff",
        ],
    )
    def test_tolerant_mode_never_raises(self, junk):
        module = parse_tolerant(junk).module
        assert isinstance(module, ast.Module)


class TestCorpusProperty:
    """Every synthetic-corpus module must parse; obfuscated ones too."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_benign_corpus_parses_and_roundtrips(self, seed):
        rng = random.Random(seed)
        source = generate_benign_module(rng, target_length=rng.randint(200, 2000))
        assert isinstance(assert_spans_reparse(source), ast.Module)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_obfuscated_corpus_parses(self, seed):
        rng = random.Random(seed)
        plain = generate_malicious_macro(rng, rng.choice(("word", "excel")))
        obfuscated = default_pipeline().run(plain, seed=seed).source
        module = parse_tolerant(obfuscated).module
        assert module.procedures


def test_golden_corpus_spans_reparse():
    parsed = [assert_spans_reparse(source) for source in corpus_sources()]
    assert sum(module is not None for module in parsed) > 50
