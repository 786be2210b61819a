"""Differential tests: the master-regex lexer against the reference scanner.

:mod:`tests.vba.lexer_oracle` keeps the character-at-a-time scanner the
production lexer replaced.  Both must agree token for token — kind, text,
line and column — on the generated corpus and on fuzzed input drawn from
an alphabet built around every place where the two designs could part:
line ends, continuations, radix and date literals, ``Rem``, type
suffixes after keywords, unterminated strings, and non-ASCII characters
that a Unicode-aware regex class or case fold would wrongly accept.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vba.lexer import tokenize
from repro.vba.tokens import Token, TokenKind
from tests.vba.lexer_oracle import reference_tokenize
from tests.vba.test_frontend_golden import corpus_sources

FRAGMENTS = (
    "\r", "\n", "\r\n", "\n\r", " ", "\t", "  ", " _", "_", " _\t\t", " _ \r",
    "&", "&H", "&h", "&O", "&o", "&HFF", "&O17", "&H1&", "&O7%",
    "#", "#1/2/2016#", "#12:30 PM#", "#" + "1" * 23 + "#", "#" + "1" * 24 + "#",
    "Rem", "rem", "REM ", "remark", "Rem x", "me#", "Me", "me", "Dim", "x", "ab1",
    '"', '""', '"ab', "'", "' c",
    "0", "1", "9", ".", ".5", "e", "E", "e+", "e-", "1e", "2.5E-3",
    "%", "!", "@", "$", "^", "+", "-", "*", "/", "\\",
    "<", ">", "=", ":", "<=", ">=", "<>", ":=", "(", ")", ",", ";", "?",
    "[", "]", "{", "}",
    "é", "٣", "K", "ſ", "İ", "\x0b", "\x0c", "\x85", " ",
    " ", "\x00",
)


def _same_tokens(source: str) -> None:
    assert tokenize(source) == reference_tokenize(source), repr(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "me#1/2/2016#",
        "Dim#1/2/2016#",
        "x#1/2/2016#",
        "a _",
        "a _\t\t",
        "a _\r",
        "a _\r\nb",
        "a\rb\r\nc\n\rd",
        "rem",
        "Rem\rx",
        "remark = 1",
        "x = rem",
        '"unterminated',
        '"ab""cd',
        "&H",
        "&HFFg",
        "&O778",
        "#" + "1" * 23 + "#",
        "#" + "1" * 24 + "#",
        "1e+",
        "1.e5",
        "٣ + ١٢",
        "Key = ſub",
        "x\x0by",
    ],
)
def test_edge_cases_match_the_reference(source):
    _same_tokens(source)


def test_tokens_are_ordinary_frozen_tokens():
    token = tokenize("Dim x")[2]
    assert token == Token(TokenKind.IDENTIFIER, "x", 1, 5)
    assert hash(token) == hash(Token(TokenKind.IDENTIFIER, "x", 1, 5))
    assert repr(token) == repr(Token(TokenKind.IDENTIFIER, "x", 1, 5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        token.text = "y"


def test_corpus_matches_the_reference():
    for source in corpus_sources():
        _same_tokens(source)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_fragment_fuzz_matches_the_reference(source):
    _same_tokens(source)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_unicode_fuzz_matches_the_reference(source):
    _same_tokens(source)
