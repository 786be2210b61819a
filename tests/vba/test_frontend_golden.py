"""Golden digest over everything the VBA front end produces.

One SHA-256 pins, for a fixed-seed corpus, the token streams, the
``MacroAnalysis`` fields, every ``AnalysisSummary`` field and the
tolerant-parse AST (or its parse error).  Any change to the lexer, the
analyzer walks or the parser cursor that alters a single token position,
call site, array byte or AST node changes the digest.  The pinned value
was computed with the character-at-a-time scanner that the master-regex
lexer replaced, so passing here means the rewrite is output-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import random

import numpy as np

from repro.corpus.builder import CorpusBuilder, paper_profile
from repro.corpus.malicious import generate_malicious_macro
from repro.obfuscation.pipeline import default_pipeline
from repro.vba.analyzer import analyze
from repro.vba.parser import VBAParseError, parse_module

GOLDEN_SHA256 = "0117b292f6e58b68c3954789ed6abc8b48c3363fda4e353de1d76985ed1dcf61"

#: Hand-written edge cases on top of the generated corpus.
EDGE_CASES = (
    "",
    "Sub A()\r  x = 1\r\n  y = &HFF& + &O17 + .5e3 + 1.5#\rEnd Sub",
    'x = "a" & _\t\t\ny = "unterminated\nRem note\nremark = 1\nrem',
    "d = #1/2/2016# : e = #123456789012345678901234#: f = me#1/2/2016#",
    "Sub B(ByVal s$, Optional n%)\n  Call B(Chr$(65), f(g(1), (2)))\n  f( (\nEnd Sub",
    "Sub C()\n  Exit Sub\n  x = = 1\nEnd Sub\n _",
    "é = ٣ + K + ſ\x0b! x",
)


@functools.cache
def corpus_sources() -> tuple[str, ...]:
    """The fixed-seed corpus, built once per test session."""
    corpus = CorpusBuilder(paper_profile().scaled(0.01), seed=14).build()
    rng = random.Random(14)
    pipeline = default_pipeline()
    obfuscated = [
        pipeline.run(generate_malicious_macro(rng, host), seed=index).source
        for index, host in enumerate(("word", "excel") * 3)
    ]
    return (*sorted(corpus.truth), *obfuscated, *EDGE_CASES)


def _field_bytes(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, float):
        # Entropy goes through np.log2, whose last bit may differ between
        # CPUs; it depends on the characters only, never on the tokens.
        return f"{value:.12g}".encode()
    return repr(value).encode()


def front_end_digest(sources) -> str:
    digest = hashlib.sha256()
    for source in sources:
        analysis = analyze(source)
        for token in analysis.tokens:
            digest.update(
                f"{token.kind.name}\0{token.text}\0{token.line}\0{token.column}\1".encode()
            )
        for name in (
            "declared_identifiers",
            "identifier_uses",
            "call_sites",
            "string_literals",
            "comments",
            "procedure_names",
        ):
            digest.update(repr(getattr(analysis, name)).encode())
        summary = analysis.ensure_summary()
        for field in dataclasses.fields(summary):
            digest.update(field.name.encode())
            digest.update(_field_bytes(getattr(summary, field.name)))
        try:
            tree = repr(parse_module(source, tolerant=True))
        except VBAParseError as error:
            tree = f"error: {error}"
        digest.update(tree.encode())
        digest.update(b"\2")
    return digest.hexdigest()


def test_front_end_outputs_match_the_pinned_digest():
    assert front_end_digest(corpus_sources()) == GOLDEN_SHA256
