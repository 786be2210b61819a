"""Parser edge cases: continuations, colon statements, Const lists.

Real-world macro sources (and the corpus obfuscator's output) lean on
syntax the happy-path tests skipped: ``_`` line continuations with
trailing whitespace, colon-separated statement sequences, multi-name
``Const`` declarations.  Each case round-trips parser → unparser →
parser to prove the AST is faithful, and a property sweep over the
synthetic corpus keeps the tolerant mode total.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.benign import generate_benign_module
from repro.corpus.malicious import generate_malicious_macro
from repro.obfuscation.pipeline import default_pipeline
from repro.vba import ast_nodes as ast
from repro.vba.parser import parse_module
from repro.vba.unparser import unparse_module


def roundtrip(source: str) -> ast.Module:
    """parse → unparse → parse; both parses must agree structurally."""
    first = parse_module(source)
    rendered = unparse_module(first)
    second = parse_module(rendered)
    assert unparse_module(second) == rendered
    return first


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


class TestLineLabels:
    @pytest.mark.parametrize("tolerant", [False, True])
    def test_label_alone_on_its_line(self, tolerant):
        module = parse_module(
            "Sub A()\nAgain:\n    i = i + 1\nEnd Sub", tolerant=tolerant
        )
        label, step = module.procedures["a"].body
        assert label == ast.NoOpStmt("Again:", 2)
        assert isinstance(step, ast.Assign)

    @pytest.mark.parametrize("tolerant", [False, True])
    def test_label_before_a_statement(self, tolerant):
        module = parse_module(
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
        module = parse_module(junk, tolerant=True)
        assert isinstance(module, ast.Module)


class TestCorpusProperty:
    """Every synthetic-corpus module must parse; obfuscated ones too."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_benign_corpus_parses_and_roundtrips(self, seed):
        rng = random.Random(seed)
        source = generate_benign_module(rng, target_length=rng.randint(200, 2000))
        module = parse_module(source, tolerant=True)
        rendered = unparse_module(module)
        reparsed = parse_module(rendered, tolerant=True)
        assert unparse_module(reparsed) == rendered

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_obfuscated_corpus_parses(self, seed):
        rng = random.Random(seed)
        plain = generate_malicious_macro(rng, rng.choice(("word", "excel")))
        obfuscated = default_pipeline().run(plain, seed=seed).source
        module = parse_module(obfuscated, tolerant=True)
        assert module.procedures
