"""Differential checks for the de-obfuscation engine.

Two references:

* the previous engine (``deobfuscator_oracle.py``: its own folder, purity
  analysis and sandboxed decoder runs) on the paper-shaped corpus and on
  every encoder strategy — the rewrite must parse what it parsed, restore
  at least its AV detections, keep every long literal it recovered, and
  be idempotent;
* the concrete interpreter — a rewritten function must return what the
  original returns, for several arguments.
"""

import pytest

from repro.avsim.signatures import MASTER_SIGNATURES
from repro.avsim.virustotal import VirusTotalSim
from repro.corpus.builder import CorpusBuilder, paper_profile
from repro.deobfuscation import deobfuscate
from repro.obfuscation.base import make_context
from repro.obfuscation.encode import STRATEGIES, StringEncoder
from repro.pipeline.dataset import DatasetBuilder
from repro.vba.interpreter import Interpreter
from repro.vba.lexer import tokenize
from repro.vba.tokens import TokenKind
from tests.deobfuscation import deobfuscator_oracle as oracle
from tests.deobfuscation.test_deobfuscation import DOWNLOADER, PURE_FUNCTION
from tests.sa.test_folding import ONE_PATH_WRITES

MIN_LITERAL = 6
SEEDS = (0, 1, 2)


def _literals(source: str) -> list[str]:
    return [
        token.string_value
        for token in tokenize(source)
        if token.kind is TokenKind.STRING
    ]


@pytest.fixture(scope="module")
def corpus_sources() -> list[str]:
    corpus = CorpusBuilder(paper_profile().scaled(0.03), seed=2016).build()
    dataset = DatasetBuilder().build(corpus.documents, corpus.truth)
    return [sample.source for sample in dataset.samples]


def _encoded_sources() -> list[str]:
    return [
        StringEncoder(strategies=(strategy,)).apply(program, make_context(seed))
        for strategy in STRATEGIES
        for seed in SEEDS
        for program in (DOWNLOADER, PURE_FUNCTION)
    ]


def _signatures(source: str) -> set[str]:
    return {
        signature.name
        for signature in MASTER_SIGNATURES
        if signature.pattern.search(source)
    }


def _assert_matches_oracle(sources: list[str]) -> None:
    scanner = VirusTotalSim()
    for index, source in enumerate(sources):
        reference = oracle.deobfuscate(source)
        result = deobfuscate(source)
        assert result.report.parsed == reference.report.parsed, index
        # Every vendor's score only grows with the set of matched master
        # signatures (weights are positive), so a superset settles the
        # detection comparison without 60 vendor scans.
        if not _signatures(result.source) >= _signatures(reference.source):
            assert (
                scanner.scan([result.source]).detections
                >= scanner.scan([reference.source]).detections
            ), index
        ours = _literals(result.source)
        missing = [
            literal
            for literal in _literals(reference.source)
            if len(literal) >= MIN_LITERAL
            and not any(literal in other for other in ours)
        ]
        assert not missing, (index, missing)
        assert deobfuscate(result.source).source == result.source, index


def test_corpus_matches_oracle(corpus_sources):
    assert len(corpus_sources) > 100
    _assert_matches_oracle(corpus_sources)


def test_encoder_strategies_match_oracle():
    _assert_matches_oracle(_encoded_sources())


def _calls_agree(original: str, rewritten: str, name: str, arguments) -> None:
    for argument in arguments:
        assert Interpreter.from_source(rewritten).call(name, argument) == (
            Interpreter.from_source(original).call(name, argument)
        ), argument


@pytest.mark.parametrize("case", sorted(ONE_PATH_WRITES))
def test_one_path_writes_keep_their_semantics(case):
    source = ONE_PATH_WRITES[case]
    rewritten = deobfuscate(source).source
    assert "omega-tail" not in rewritten
    _calls_agree(source, rewritten, "F", (True, False, 0, 1, 3))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_encoded_function_keeps_its_semantics(strategy):
    for seed in SEEDS:
        obfuscated = StringEncoder(strategies=(strategy,)).apply(
            PURE_FUNCTION, make_context(seed)
        )
        rewritten = deobfuscate(obfuscated).source
        assert "http://" in rewritten
        _calls_agree(
            obfuscated, rewritten, "BuildTarget", ("h.example", "", "a&b", 7)
        )


def test_module_state_writes_are_kept():
    # Remember's write to ``cache`` is visible to Peek later: folding the
    # call away (and dropping Remember) would change what Peek returns.
    source = (
        "Dim cache\n"
        "Function Remember(s)\n"
        "    cache = s\n"
        "    Remember = StrReverse(s)\n"
        "End Function\n"
        "Function Main()\n"
        '    x = Remember("olleh-dlrow")\n'
        "    Main = x\n"
        "End Function\n"
        "Function Peek()\n"
        '    Peek = cache & "!"\n'
        "End Function\n"
    )
    rewritten = deobfuscate(source).source
    assert "Remember(" in rewritten
    for text in (source, rewritten):
        interpreter = Interpreter.from_source(text)
        assert interpreter.call("Main") == "world-hello"
        assert interpreter.call("Peek") == "olleh-dlrow!"


#: Control flow the SA does not follow, each with an expression whose
#: value depends on the path taken (it must stay an expression) and the
#: literal one straight-line pass would have given it.
UNORDERED = {
    # ``End Select`` fails the header: the body is module-level code.
    "select-case": (
        "Function Pick(n)\n"
        "    Select Case n\n"
        '        Case 1: s = "one"\n'
        '        Case Else: s = "two"\n'
        "    End Select\n"
        '    Pick = s & "!"\n'
        "End Function\n",
        's & "!"',
        '"two!"',
    ),
    "goto-loop": (
        "Sub Loopy()\n"
        '    x = "a": i = 0\n'
        "Again:\n"
        '    y = x & "b"\n'
        '    x = "c"\n'
        "    i = i + 1\n"
        "    If i < 2 Then GoTo Again\n"
        '    ActiveDocument.Variables("v").Value = y\n'
        "End Sub\n",
        'x & "b"',
        '"ab"',
    ),
    "goto-module-variable": (
        "Dim g\n"
        "Sub Cycle()\n"
        '    g = "a"\n'
        "Again:\n"
        '    y = g & "b"\n'
        '    g = "c"\n'
        '    If y <> "cb" Then GoTo Again\n'
        '    ActiveDocument.Variables("v").Value = y\n'
        "End Sub\n",
        'g & "b"',
        '"ab"',
    ),
    "gosub-return": (
        "Sub Show()\n"
        '    x = "a"\n'
        "    GoSub Emit\n"
        '    x = "b"\n'
        "Emit:\n"
        '    ActiveDocument.Variables("v").Value = x & "!"\n'
        '    If x = "a" Then Return\n'
        "End Sub\n",
        'x & "!"',
        '"b!"',
    ),
    "on-error-resume": (
        "Sub Retry()\n"
        "    On Error GoTo Fail\n"
        '    s = "a"\n'
        "    k = 1 / 0\n"
        '    s = s & "b"\n'
        '    ActiveDocument.Variables("v").Value = s\n'
        "    Exit Sub\n"
        "Fail:\n"
        '    s = "z"\n'
        "    Resume Next\n"
        "End Sub\n",
        's & "b"',
        '"ab"',
    ),
    # A block header the parser cannot take: its body runs flat, once.
    "unparsed-loop-header": (
        "Sub Spin()\n"
        '    s = "a"\n'
        "    Do While Len(s) < 3 Or\n"
        '        s = s & "b"\n'
        "    Loop\n"
        '    ActiveDocument.Variables("v").Value = s\n'
        "End Sub\n",
        's & "b"',
        '"ab"',
    ),
}


@pytest.mark.parametrize("case", sorted(UNORDERED))
def test_unfollowed_control_flow_is_not_rewritten(case):
    source, kept, wrong = UNORDERED[case]
    rewritten = deobfuscate(source).source
    assert kept in rewritten
    assert wrong not in rewritten
    assert deobfuscate(rewritten).source == rewritten


def test_unfollowed_control_flow_still_folds_closed_expressions():
    # No jump changes a literal chain or a decoder call on literals.
    source = (
        "Function Dec(s)\n"
        "    Dec = StrReverse(s)\n"
        "End Function\n"
        "Sub Fetch()\n"
        "    On Error GoTo Fail\n"
        '    u = "ht" & "tp://" & Dec("moc.elpmaxe")\n'
        '    ActiveDocument.Variables("v").Value = u\n'
        "    Exit Sub\n"
        "Fail:\n"
        "    Resume Next\n"
        "End Sub\n"
    )
    rewritten = deobfuscate(source).source
    assert 'u = "http://example.com"' in rewritten
    assert "Function Dec" not in rewritten
