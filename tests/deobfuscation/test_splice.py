"""The de-obfuscated output is the input with folded literals spliced in.

Two kinds of check:

* byte preservation — declarations, verbatim statements, comments, blank
  lines, CRLF endings and line continuations come back as written, and
  only the folded expressions and dropped declarations change;
* equivalence with the previous engine, which rebuilt the AST and printed
  it (``rewriter_oracle.py`` over ``unparser_oracle.py``): on the 0.03
  corpus, every encoder strategy and the front-end golden corpus, the
  normal form of the spliced output (``unparse_module`` of its parse) is
  that engine's output, and every report field is equal.  The pinned
  exceptions are inputs where a const or decoder is read only by a
  statement the parser kept verbatim: that engine dropped it, the splice
  keeps it, and there the splice equals that engine with the words of
  verbatim statements counted as references.
"""

from __future__ import annotations

import dataclasses
import hashlib
from unittest import mock

import pytest

from repro.corpus.builder import CorpusBuilder, paper_profile
from repro.deobfuscation import deobfuscate, engine
from repro.pipeline.dataset import DatasetBuilder
from repro.vba import ast_nodes as ast
from repro.vba.interpreter import run_function
from repro.vba.lexer import lex
from repro.vba.parser import parse_module, parse_tolerant
from tests.deobfuscation import rewriter_oracle
from tests.deobfuscation.test_differential import _encoded_sources
from tests.vba import test_frontend_golden
from tests.vba.unparser_oracle import unparse_module


class TestBytePreservation:
    def test_declarations_and_verbatim_statements_come_back_as_written(self):
        source = (
            "Sub A()\n"
            "    Dim s As String\n"
            '    s = "ab" & "cd"\n'
            "    MsgBox s & a(0)\n"
            "End Sub\n"
        )
        assert deobfuscate(source).source == source.replace('"ab" & "cd"', '"abcd"')

    def test_comments_blank_lines_crlf_and_continuations_survive(self):
        source = (
            "' fetches the update\r\n"
            "Sub A(z) ' entry point\r\n"
            "\r\n"
            '    x = "ab" & _\r\n'
            '        "cd" \' joined\r\n'
            "    y = x & z\r\n"
            "End Sub\r\n"
        )
        want = source.replace('"ab" & _\r\n        "cd"', '"abcd"')
        assert deobfuscate(source).source == want.replace("y = x & z", 'y = "abcd" & z')

    def test_a_macro_with_nothing_to_fold_is_byte_identical(self):
        source = (
            "Attribute VB_Name = \"Module1\"\r\n"
            "Option Explicit\r\n"
            "' tidy the sheet\r\n"
            "Public Sub Tidy(ByVal n As Long)\r\n"
            "    Dim i As Long   ' row\r\n"
            "    For i = 1 To n\r\n"
            "        Cells(i, 1).Value = Trim$(Cells(i, 1).Value) _\r\n"
            "            & Cells(i, 2).Value\r\n"
            "    Next i\r\n"
            "End Sub"
        )
        result = deobfuscate(source)
        assert result.report.folded_expressions == 0
        assert result.source == source

    def test_a_private_decoder_is_removed_whole(self):
        source = (
            "Sub Document_Open()\n"
            '    Shell Dec("dmc"), 0 \' run it\n'
            "End Sub\n"
            "\n"
            "Private Function Dec(s) ' decoder\n"
            "    Dec = StrReverse(s)\n"
            "End Function\n"
            "' trailer\n"
        )
        result = deobfuscate(source)
        assert result.report.procedures_removed == ("Dec",)
        assert result.source == (
            "Sub Document_Open()\n"
            '    Shell "cmd", 0 \' run it\n'
            "End Sub\n"
            "\n"
            "' trailer\n"
        )

    def test_a_name_read_only_by_a_verbatim_statement_is_kept(self):
        source = (
            'Const K = "abc"\n'
            "Function Dec(s)\n"
            "    Dec = StrReverse(s)\n"
            "End Function\n"
            "Sub Main()\n"
            "    MsgBox K\n"
            '    Debug.Print Dec("cba")\n'
            '    y = Dec("fed")\n'
            "End Sub\n"
        )
        result = deobfuscate(source)
        assert result.report.consts_inlined == 0
        assert result.report.procedures_removed == ()
        assert result.source == source.replace('y = Dec("fed")', 'y = "def"')

    @pytest.mark.parametrize(
        "kept, declaration",
        [
            ("A", 'Const A = "x" \' parts'),
            ("B", 'Const B As String = "y" \' parts'),
            ("C", 'Const C = "z" \' parts'),
        ],
    )
    def test_dropping_some_items_of_a_const_list_leaves_valid_code(self, kept, declaration):
        # A With subject is never replaced, so the const it names stays.
        source = (
            'Private Const A = "x", B As String = "y", C = "z" \' parts\n'
            "Sub S()\n"
            f"    With {kept}\n"
            "        .Go\n"
            "    End With\n"
            "    Shell A & B & C, 1\n"
            "End Sub\n"
        )
        result = deobfuscate(source)
        assert result.report.consts_inlined == 2
        assert result.source.splitlines()[0] == f"Private {declaration}"
        assert 'Shell "xyz", 1' in result.source
        parse_module(result.source)

    def test_a_const_list_dropped_whole_takes_its_line(self):
        source = (
            "' parts\n"
            '  Private Const A = "x", B = "y" \' joined below\n'
            "Sub S()\n"
            "    Shell A & B, 1\n"
            "End Sub\n"
        )
        assert deobfuscate(source).source == "' parts\nSub S()\n    Shell \"xy\", 1\nEnd Sub\n"

    def test_a_folded_spine_prefix_keeps_its_parentheses_balanced(self):
        # The prefix ``("a" & "b") & c`` is replaced through the span of
        # its own node, which starts at its opening parenthesis, never
        # from the leaf ``"a"`` to ``c``.
        source = (
            'Const c = "C"\n'
            "Function S(d)\n"
            '    S = (("a" & "b") & c) & d \' joined\n'
            "End Function\n"
        )
        result = deobfuscate(source).source
        assert result == 'Function S(d)\n    S = "abC" & d \' joined\nEnd Function\n'
        assert run_function(result, "S", "!") == run_function(source, "S", "!") == "abC!"

    def test_a_multi_token_literal_is_parenthesized_except_as_an_argument(self):
        # ``Shell ("a" & Chr(10)), 1`` would read the parentheses as the
        # argument list.
        source = (
            "Function S(d)\n"
            '    t = "a"\n'
            "    S = d & (t & Chr(10))\n"
            "    Shell t & Chr(10), 1\n"
            "    n = 0 - 5\n"
            "    k = n ^ 2\n"
            "    m = -1\n"
            "End Function\n"
        )
        result = deobfuscate(source).source
        assert 'S = d & ("a" & Chr(10))' in result
        assert 'Shell "a" & Chr(10), 1' in result
        assert "n = (-5)" in result and "k = 25" in result
        assert "m = -1\n" in result  # already spelled as its literal
        parse_module(result)
        assert deobfuscate(result).source == result


def _edits(source: str) -> list[tuple[int, int, str]]:
    """The character edits the engine splices into ``source``."""
    table = lex(source)
    parsed = parse_tolerant(source, table)
    recorder = engine._Recorder(parsed.module, engine.DEEP_SA_BUDGET)
    recorder.run()
    report = engine.DeobfuscationReport()
    rewriter = engine._Rewriter(recorder, report, source, table, parsed.spans)
    rewriter.module(parsed.module)
    return rewriter.edits


def _assert_changed_only_inside_edits(source: str, output: str) -> None:
    """Walk ``output`` against ``source``: between edits they agree byte
    for byte, and each edit's range reads its text (an edit inside a
    deleted declaration goes with it)."""
    cursor = at = 0
    for start, end, text in sorted(_edits(source), key=lambda edit: (edit[0], -edit[1])):
        if start < cursor:
            assert end <= cursor, (start, end)  # nested, never straddling
            continue
        kept = source[cursor:start]
        assert output[at : at + len(kept)] == kept, start
        at += len(kept)
        assert output[at : at + len(text)] == text, start
        at += len(text)
        cursor = end
    assert output[at:] == source[cursor:]


def _rewrite_reading_verbatim_words(source: str):
    """The old rewrite, with the words of statements the parser kept
    verbatim counted as references, as the splice counts them."""
    scan = rewriter_oracle._scan

    def scan_verbatim_too(root):
        names, nodes = scan(root)
        for node in rewriter_oracle._walk(root):
            if type(node) is ast.NoOpStmt:
                names.extend(filter(None, lex(node.text).words))
        return names, nodes

    with mock.patch.object(rewriter_oracle, "_scan", scan_verbatim_too):
        return rewriter_oracle.deobfuscate(source)


def assert_splice_is_the_rewrite(sources, verbatim_reads=None) -> None:
    """``verbatim_reads`` maps the index of each input that holds a name
    read only by a verbatim statement to the first 12 hex digits of the
    input's SHA-256."""
    verbatim_reads = verbatim_reads or {}
    for index, source in enumerate(sources):
        reference = rewriter_oracle.deobfuscate(source)
        result = deobfuscate(source)
        if index in verbatim_reads:
            digest = hashlib.sha256(source.encode()).hexdigest()[:12]
            assert digest == verbatim_reads[index], index
            # The old rewrite drops what the splice keeps ...
            assert reference.report.consts_inlined + len(
                reference.report.procedures_removed
            ) > result.report.consts_inlined + len(result.report.procedures_removed), index
            # ... and nothing else differs.
            reference = _rewrite_reading_verbatim_words(source)
        assert dataclasses.asdict(result.report) == dataclasses.asdict(reference.report), index
        if reference.report.error:  # a failed parse, or a pass cut short
            assert result.source == reference.source == source, index
            continue
        report = result.report
        if not (report.folded_expressions or report.procedures_removed or report.consts_inlined):
            assert result.source == source, index
        assert unparse_module(parse_tolerant(result.source).module) == reference.source, index
        _assert_changed_only_inside_edits(source, result.source)


#: Shapes the corpora rarely hold: a const declared twice, a module
#: without a final line break, CR-only line ends, a declaration after a
#: ``:`` on its line, a decoder with modifiers before ``Function``.
EDGE_CASES = (
    'Const A = "x"\nConst A = "x"\nSub S()\n    Shell A, 1\nEnd Sub\n',
    'Function D(s)\n    D = StrReverse(s)\nEnd Function\nSub S()\n    Shell D("dmc"), 1\nEnd Sub',
    'Const A = "x", B = "y"\rSub S()\r    Shell A & B, 1\rEnd Sub\r',
    'Dim g: Const K = "k" \' key\nSub S()\n    Shell K, 1\nEnd Sub\n',
    'Public Static Function D(s)\n    D = LCase(s)\nEnd Function: Sub S()\n'
    '    Shell D("CMD"), 1\nEnd Sub\n',
)


def test_edge_cases_splice_is_the_rewrite():
    assert_splice_is_the_rewrite(EDGE_CASES)


def test_a_dropped_duplicate_procedure_diverges():
    # The parser keeps the last of two procedures with one name, so the
    # first is in no tree: the old rewrite printed the tree without it,
    # the splice leaves its text as written.
    first = "Function D(s)\n    D = StrReverse(s)\nEnd Function\n"
    rest = "Function D(s)\n    D = LCase(s)\nEnd Function\nSub S()\n    Shell D(\"DMC\"), 1\nEnd Sub\n"
    reference = rewriter_oracle.deobfuscate(first + rest)
    result = deobfuscate(first + rest)
    assert result.report == reference.report
    assert reference.source == 'Sub S()\n    Shell "dmc", 1\nEnd Sub\n'
    assert result.source == first + reference.source


#: Inputs of the 0.03 corpus and the golden corpus where a const or
#: decoder is read only by a verbatim statement (``MsgBox K``,
#: ``Debug.Print Dec("cba")``): index -> SHA-256 prefix.
CORPUS_VERBATIM_READS = {
    14: "cb066fdc2a21",
    38: "a2f668036721",
    49: "193cb9eb29b7",
    64: "40c7c21d189f",
}
GOLDEN_VERBATIM_READS = {
    15: "820f1a35375f",
    17: "d411e5b069d7",
    18: "2e9457ad47af",
    19: "b85faa8cb85f",
    20: "8f610178fdb1",
    21: "808430419162",
    42: "1e6ca3659b8d",
    43: "e549d4059235",
    46: "3463cffb8a88",
}


def test_corpus_splice_is_the_rewrite():
    corpus = CorpusBuilder(paper_profile().scaled(0.03), seed=2016).build()
    dataset = DatasetBuilder().build(corpus.documents, corpus.truth)
    assert_splice_is_the_rewrite(
        [sample.source for sample in dataset.samples], CORPUS_VERBATIM_READS
    )


def test_encoder_strategies_splice_is_the_rewrite():
    assert_splice_is_the_rewrite(_encoded_sources())


def test_golden_corpus_splice_is_the_rewrite():
    assert_splice_is_the_rewrite(
        test_frontend_golden.corpus_sources(), GOLDEN_VERBATIM_READS
    )
